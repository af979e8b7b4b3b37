package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultReplicas is the virtual-node count each peer contributes to
// the ring. 64 points per node keeps the expected load imbalance of a
// small static cluster within a few percent while the ring stays tiny
// (a 16-node cluster is 1024 points, one binary search per lookup).
const DefaultReplicas = 64

// Ring is an immutable consistent-hash ring: each node contributes
// DefaultReplicas virtual points, and a key is owned by the first point
// clockwise from the key's hash. Immutability makes Owner lock-free and
// allocation-free; a different member set is a different ring.
type Ring struct {
	points []ringPoint // sorted by hash, ties broken by node name
	nodes  []string    // member set, sorted
}

type ringPoint struct {
	hash uint64
	node string
}

// hashKey is the ring's hash: 64-bit FNV-1a. Routing needs dispersion,
// not collision resistance — the keys are already canonical SHA-256
// hashes of instances (relpipe.Instance.Canonical), and FNV keeps the
// lookup allocation-free on the request hot path.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// NewRing builds the ring for a node set. The input order is irrelevant
// (nodes are sorted first) and every tie is broken deterministically,
// so all cluster members derive bit-identical ownership from the same
// peer list — the property the whole routing scheme rests on.
func NewRing(nodes []string) *Ring {
	ns := append([]string(nil), nodes...)
	sort.Strings(ns)
	r := &Ring{
		points: make([]ringPoint, 0, len(ns)*DefaultReplicas),
		nodes:  ns,
	}
	for _, n := range ns {
		for i := 0; i < DefaultReplicas; i++ {
			r.points = append(r.points, ringPoint{hashKey(n + "#" + strconv.Itoa(i)), n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the node that owns key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: past the last point means the first point clockwise
	}
	return r.points[i].node
}

// Nodes returns the member set, sorted.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}
