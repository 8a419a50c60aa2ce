package main

import (
	"bufio"
	"context"
	"math"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (q in (0, 1]); xs
// need not be sorted.  Nearest rank keeps every reported latency a value
// that was actually observed.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime reports the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readHeap reads the bytes allocated so far and the bytes the heap
// holds in objects, live or not yet collected.  runtime/metrics reads do
// not stop the world.
func readHeap() (allocated, held uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapSampler tracks the most heap the process held in objects while it
// runs.  That is what the process actually occupies; the collector's
// live-bytes figure was tried and rejected, because its maximum depends
// on which protocol phase a collection happens to land in and varied by
// 30% between runs.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	_, held := readHeap()
	if held > h.peak.Load() {
		h.peak.Store(held)
	}
}

// finish stops the sampler, waits for it, and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	h.sample()
	return h.peak.Load()
}

// countConn counts the bytes crossing one loopback socket in both
// directions.  It wraps the client's net.Conn, so every byte of a
// session — frame headers, mux tags and credits included — is counted
// exactly once.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// dialCounted opens a loopback TCP connection whose traffic is counted
// into n.
func dialCounted(ctx context.Context, addr string, n *atomic.Int64) (net.Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: nc, n: n}, nil
}

// hostFacts are recorded with every result so a number is never read
// without the machine and configuration that produced it.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Link       string `json:"link"`
}

var (
	factsOnce sync.Once
	facts     hostFacts
)

func host() hostFacts {
	factsOnce.Do(func() {
		facts = hostFacts{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			CPUModel:   cpuModel(),
			GoVersion:  runtime.Version(),
			Commit:     "unknown (not built from a git checkout)",
			Link:       "loopback TCP, not a real link",
		}
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					facts.Commit = s.Value
				}
			}
		}
	})
	return facts
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks reads the host's cumulative steal time and total CPU time
// from /proc/stat, in clock ticks; ok is false where that is not
// available.  On a virtual machine, steal is time the hypervisor gave
// this machine's CPUs to someone else, and wall-clock metrics move with
// it.
func stealTicks() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range fields[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// waitGoroutines waits up to d for the goroutine count to fall back to
// at most base, and reports whether it did: a benchmark that leaves
// protocol goroutines behind after the server and subscription close
// has found a leak.
func waitGoroutines(base int, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		if runtime.NumGoroutine() <= base {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}
