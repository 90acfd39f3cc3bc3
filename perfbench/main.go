// Command perfbench is the repository benchmark. One process sets up one
// cooperative pair over loopback TCP (or, for sim-fin1, the virtual-time
// simulator), drives one named workload from at most nproc client
// goroutines, checks that every output is correct, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: with -trace 0 it carries the end-to-end metrics, with -trace 1
// the per-layer metrics of a separate traced run. See README.md.
//
//	perfbench -workload flush-bound -seed 7 -seconds 10 -trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	clients  int
	root     string // scratch root for data and traces, inside the checkout
}

// workloadNames lists every workload in report order.
var workloadNames = []string{"ack-resident", "flush-bound", "read-zipf-paced", "sim-fin1"}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: ack-resident, flush-bound, read-zipf-paced or sim-fin1")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&o.root, "root", ".perfbench", "scratch directory for stores and traces")
	flag.Parse()
	if err := run(o, traceFlag); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(o options, traceFlag int) error {
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	o.clients = runtime.NumCPU()
	if err := os.MkdirAll(o.root, 0o755); err != nil {
		return err
	}
	var res *result
	var err error
	if o.workload == "sim-fin1" {
		res, err = runSim(o)
	} else if s, ok := liveSpecs[o.workload]; ok {
		res, err = runLive(s, o)
	} else {
		return fmt.Errorf("unknown -workload %q (want one of %v)", o.workload, workloadNames)
	}
	if err != nil {
		return err
	}
	rates := map[string]float64{}
	for name, s := range liveSpecs {
		rates[name] = s.rate
	}
	host := hostShape{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: goVersion(), Kernel: kernelRelease(), DataFS: fsType(o.root),
		Seed: o.seed, Workload: o.workload, Seconds: o.seconds, Clients: o.clients, Rates: rates,
	}
	if err := res.report(os.Stdout, host, o.trace); err != nil {
		return err
	}
	if len(res.problems) > 0 {
		return fmt.Errorf("correctness check failed; see the PROBLEM lines")
	}
	return nil
}

// finishTrace writes the traced run's spans and adds a per-name self-time
// summary to the report.
func finishTrace(r *result, sb *spanBuf, o options) error {
	// One file per workload, overwritten by its next traced run, so
	// repeated runs do not pile up traces in the checkout.
	path := filepath.Join(o.root, "traces", o.workload+".jsonl")
	if err := sb.writeTrace(path); err != nil {
		return err
	}
	for _, t := range sb.selfTimes() {
		r.note("span %-32s spans %7d calls %8d total %10.3f ms self %10.3f ms", t.Name, t.Spans, t.Calls, t.TotalMs, t.SelfMs)
	}
	r.note("trace: %d spans (%d dropped) of seed %d written to %s", len(sb.spans), sb.dropped, o.seed, path)
	return nil
}
