package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostShape is recorded with every result, so a number is never read
// without the machine that produced it.
type hostShape struct {
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Kernel     string             `json:"kernel"`
	DataFS     string             `json:"data_fs"`
	Seed       int64              `json:"seed"`
	Workload   string             `json:"workload"`
	Seconds    float64            `json:"seconds"`
	Clients    int                `json:"clients"`
	Rates      map[string]float64 `json:"open_loop_rates_ops_s"`
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x2FC12FC1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample is a runtime/metrics snapshot of the counters the benchmark
// differences over its measured window.
type rtSample struct {
	allocBytes uint64
	gcCycles   uint64
	pauseSec   float64
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/sched/pauses/total/gc:seconds"}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r rtSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, 0) {
				lo = hi
			}
			if math.IsInf(hi, 0) {
				hi = lo
			}
			r.pauseSec += float64(c) * (lo + hi) / 2
		}
	}
	return r
}

// rssBytes reads the process's current resident set size.
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// sampler polls RSS (and an optional probe, e.g. GC pressure) every
// interval until stopped; peak RSS and the probe's mean cover exactly
// the window between start and stop.
type sampler struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	peak  int64
	sum   float64
	count int
}

func startSampler(interval time.Duration, probe func() float64) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			if r := rssBytes(); r > s.peak {
				s.peak = r
			}
			if probe != nil {
				s.sum += probe()
				s.count++
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns peak RSS in MB and the probe mean.
func (s *sampler) finish() (peakMB, probeMean float64) {
	close(s.stop)
	s.wg.Wait()
	if r := rssBytes(); r > s.peak {
		s.peak = r
	}
	return float64(s.peak) / (1 << 20), ratio(s.sum, float64(s.count))
}

func goVersion() string { return strings.TrimPrefix(runtime.Version(), "go") }

// stealSample is the host's cumulative CPU time from /proc/stat (in
// clock ticks): all of it, and the part the hypervisor stole.
type stealSample struct{ total, steal int64 }

// readSteal reads the aggregate cpu line of /proc/stat (zero where it
// is unavailable).
func readSteal() stealSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	var s stealSample
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(string(f[i]), 10, 64)
		if i <= 8 { // user nice system idle iowait irq softirq steal
			s.total += v
		}
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

// shareSince is the stolen share of host CPU time between a and s.
func (s stealSample) shareSince(a stealSample) float64 {
	return ratio(float64(s.steal-a.steal), float64(s.total-a.total))
}
