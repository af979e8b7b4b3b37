package cluster

import (
	"fmt"
	"testing"
)

func testNodes(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("http://node-%d:8080", i)
	}
	return nodes
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like the real routing keys (hex canonical hashes),
		// deterministic so the assertions below never flake.
		keys[i] = fmt.Sprintf("%064x", i*2654435761)
	}
	return keys
}

// TestRingDeterministic: the ring must assign identical owners
// regardless of the order the peer list arrives in — every cluster
// member builds its own ring from its own flag parse, and they all have
// to agree for routing to work at all.
func TestRingDeterministic(t *testing.T) {
	nodes := testNodes(5)
	reversed := make([]string, len(nodes))
	for i, n := range nodes {
		reversed[len(nodes)-1-i] = n
	}
	a := NewRing(nodes)
	b := NewRing(reversed)
	for _, k := range testKeys(500) {
		if ao, bo := a.Owner(k), b.Owner(k); ao != bo {
			t.Fatalf("owner(%s) differs by input order: %q vs %q", k, ao, bo)
		}
	}
}

// TestRingConsistency: adding a node may only move keys onto the new
// node; removing one may only move its own keys. That minimal-movement
// property is why the ring is a consistent hash and not a mod-N table —
// a membership change invalidates one node's share of cache locality,
// not everyone's.
func TestRingConsistency(t *testing.T) {
	base := testNodes(3)
	grown := append(testNodes(3), "http://node-99:8080")
	before := NewRing(base)
	after := NewRing(grown)
	moved := 0
	keys := testKeys(2000)
	for _, k := range keys {
		was, is := before.Owner(k), after.Owner(k)
		if was != is {
			moved++
			if is != "http://node-99:8080" {
				t.Fatalf("key %s moved %q -> %q, not to the new node", k, was, is)
			}
		}
	}
	if moved == 0 {
		t.Fatal("adding a node moved no keys at all")
	}
	if moved > len(keys)/2 {
		t.Fatalf("adding 1 node to 3 moved %d/%d keys (expected ~1/4)", moved, len(keys))
	}
}

// TestRingDistribution: with the default virtual-node count, a 3-node
// ring must spread keys roughly evenly (no node starved below 15% or
// hoarding above 55%). The inputs are fixed, so this is a deterministic
// property of the hash, not a statistical flake.
func TestRingDistribution(t *testing.T) {
	nodes := testNodes(3)
	r := NewRing(nodes)
	counts := map[string]int{}
	keys := testKeys(3000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / float64(len(keys))
		if share < 0.15 || share > 0.55 {
			t.Errorf("node %s owns %.1f%% of keys (want 15%%..55%%); distribution: %v",
				n, 100*share, counts)
		}
	}
}

// TestRingSingleAndEmpty covers the degenerate rings: one node owns
// everything, zero nodes own nothing.
func TestRingSingleAndEmpty(t *testing.T) {
	one := NewRing([]string{"http://only:1"})
	for _, k := range testKeys(50) {
		if o := one.Owner(k); o != "http://only:1" {
			t.Fatalf("single-node ring returned %q", o)
		}
	}
	empty := NewRing(nil)
	if o := empty.Owner("anything"); o != "" {
		t.Fatalf("empty ring returned %q", o)
	}
}
