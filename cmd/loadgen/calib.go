package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few virtual CPUs of a shared machine, and other
// tenants' load changes how fast those CPUs are in two ways:
//
//   - A virtual CPU alternates, every fraction of a second, between full
//     speed and about 1.7 times slower; the share of slow time drifts
//     over minutes.
//   - The hypervisor steals time from virtual CPUs that have work, at
//     times a third or more of it over several minutes. The guest counts
//     it (the steal column of /proc/stat) and charges it to no thread.
//
// Every timing of the service moves with both, so the benchmark measures
// them while it measures the service and reports each timing as it would
// read on an uncontended CPU of the machine it was built on. One thread
// pinned to each CPU times a fixed kernel every calibPeriod, in thread
// CPU time: time the thread waits for a CPU the servers hold does not
// count, and neither does stolen time, so a faster server does not make
// the host look faster. The kernel uses the standard library only, so no
// change to the program under test changes it; it mixes the kinds of
// work a request does (JSON decoding, hashing, sorting, a map,
// floating-point math). Stolen time is read from /proc/stat at the
// start and end of every phase.

// calibDoc is the kernel's fixed input.
var calibDoc = func() []byte {
	r := rand.New(rand.NewPCG(1, 1))
	type task struct{ Work, Out float64 }
	doc := make([]task, 200)
	for i := range doc {
		doc[i] = task{r.Float64() * 100, r.Float64() * 10}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return b
}()

// calibKernel is one unit of reference work. Its result is kept, so no
// part of the work can be optimized away.
func calibKernel() float64 {
	var doc []struct{ Work, Out float64 }
	if err := json.Unmarshal(calibDoc, &doc); err != nil {
		panic(err)
	}
	sum := sha256.Sum256(calibDoc)
	keys := make([]float64, 0, len(doc))
	seen := make(map[float64]int, len(doc))
	acc := float64(sum[0])
	for i, t := range doc {
		keys = append(keys, t.Work)
		seen[t.Out] = i
		for k := 1; k <= 20; k++ {
			acc += math.Log1p(t.Work*float64(k)) * math.Exp(-t.Out/float64(k))
		}
	}
	slices.Sort(keys)
	return acc + keys[0] + float64(len(seen))
}

// calibRefMs is the kernel's time on an uncontended CPU of the 2-vCPU VM
// the benchmark was built on (the fast mode of its bimodal times).
const calibRefMs = 0.245

// calibPeriod is how often each calibration thread times the kernel:
// about 1.5 % of a CPU.
const calibPeriod = 20 * time.Millisecond

type calibSample struct {
	at time.Time
	ms float64 // kernel thread CPU time
}

// calibrator times the kernel on every CPU until closed.
type calibrator struct {
	mu      sync.Mutex
	samples []calibSample
	sink    float64 // the kernel's last result
	stop    chan struct{}
	wg      sync.WaitGroup
}

// startCalibrator starts one calibration thread per CPU the process may
// run on (one unpinned thread if the CPUs cannot be listed).
func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{})}
	cpus, err := allowedCPUs()
	if err != nil || len(cpus) == 0 {
		cpus = []int{-1}
	}
	for _, cpu := range cpus {
		c.wg.Add(1)
		go c.run(cpu)
	}
	return c
}

// run times the kernel on one CPU (any, if cpu < 0). The goroutine keeps
// its thread locked, and pinned, until it returns, so the thread ends
// with it and no other goroutine ever runs pinned. A thread that cannot
// be pinned times the kernel wherever it runs.
func (c *calibrator) run(cpu int) {
	defer c.wg.Done()
	runtime.LockOSThread()
	if cpu >= 0 {
		_ = setAffinity(cpu)
	}
	tick := time.NewTicker(calibPeriod)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		t0, err := threadCPU()
		if err != nil {
			return
		}
		v := calibKernel()
		t1, err := threadCPU()
		if err != nil {
			return
		}
		c.mu.Lock()
		c.samples = append(c.samples, calibSample{time.Now(), ms(t1 - t0)})
		c.sink = v
		c.mu.Unlock()
	}
}

// close stops every calibration thread and waits for it to end.
func (c *calibrator) close() {
	close(c.stop)
	c.wg.Wait()
}

// speed returns the CPUs' speed between from and to relative to the
// reference: the reference kernel time over the kernel's mean time in
// the window, its fastest and slowest 5 % left out. It is 1 when the
// window holds no samples.
func (c *calibrator) speed(from, to time.Time) float64 {
	c.mu.Lock()
	var xs []float64
	for _, s := range c.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			xs = append(xs, s.ms)
		}
	}
	c.mu.Unlock()
	if len(xs) == 0 {
		return 1
	}
	slices.Sort(xs)
	cut := len(xs) / 20
	xs = xs[cut : len(xs)-cut]
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return calibRefMs / (sum / float64(len(xs)))
}

// phase marks the start of one measured phase.
type phase struct {
	at   time.Time
	host hostTime
}

func (c *calibrator) begin() (phase, error) {
	h, err := readHostTime()
	return phase{time.Now(), h}, err
}

// phaseScale is what the calibrator measured over one phase.
type phaseScale struct {
	speed   float64 // relative to the reference, see calibrator.speed
	stealSh float64 // stolen over all busy CPU time, stolen time included
}

// end returns what the calibrator measured since p.
func (c *calibrator) end(p phase) (phaseScale, error) {
	h, err := readHostTime()
	if err != nil {
		return phaseScale{}, err
	}
	stolen, busy := h.stolen-p.host.stolen, h.busy-p.host.busy
	return phaseScale{
		speed:   c.speed(p.at, time.Now()),
		stealSh: ratio(float64(stolen), float64(busy)),
	}, nil
}

// wall is the factor that converts a wall-clock time measured in the
// phase to the reference. The work behind it ran at the measured speed
// and, on average, lost the stolen share of its CPU time.
func (s phaseScale) wall() float64 { return s.speed * (1 - s.stealSh) }

// hostTime is the machine's CPU time so far, summed over its CPUs, in
// clock ticks: the time the hypervisor stole from CPUs that had work,
// and all the time they had work, stolen time included.
type hostTime struct{ stolen, busy int64 }

func readHostTime() (hostTime, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTime{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTime{}, errors.New("/proc/stat: no cpu line")
	}
	// user nice system idle iowait irq softirq steal
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return hostTime{}, fmt.Errorf("/proc/stat: %w", err)
		}
	}
	return hostTime{stolen: v[7], busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7]}, nil
}

// threadCPU returns the calling thread's CPU time.
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, errno
	}
	return time.Duration(ts.Nano()), nil
}

// cpuMask is a kernel CPU set of up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() ([]int, error) {
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return nil, errno
	}
	var cpus []int
	for cpu := range len(mask) * 64 {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	return cpus, nil
}

// setAffinity pins the calling thread to one CPU.
func setAffinity(cpu int) error {
	var mask cpuMask
	if cpu >= len(mask)*64 {
		return errors.New("sched_setaffinity: CPU number out of range")
	}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return errno
	}
	return nil
}
