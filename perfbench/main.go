// Command perfbench is the repository's end-to-end benchmark. It boots
// the shipped priveletd (the workload's node, and probe nodes and a
// router of its own), drives one named workload against it from a
// single process, checks every answer against an in-process reference
// release, and prints each metric by name with its unit. The last line
// of standard output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload publish --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With --trace 1 the same workload is replayed through each
// module's public functions with a span around every call, and the
// metrics are the per-layer ones. See README.md for the workloads, the
// metrics and how each layer figure is derived.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string
	work     string
}

// sample is one measured value and the round it was taken in.
type sample struct {
	v     float64
	round int
}

// runner carries one run's state: the processes, the op accounting,
// the samples, and in a traced run the tracer, mirror and replayer.
type runner struct {
	cfg   config
	e     *env
	tally tally
	mbook ledgerBook // ε charged on the mirror

	mu      sync.Mutex
	samples map[string][]sample
	round   atomic.Int64 // the measured round under way; -1 is warm-up
	quiet   map[int]bool // the rounds the metrics are taken over; nil is all
	steal   []float64    // steal ticks per round; nil where unknown
	rounds  int          // measured rounds

	// traced run only
	tr    *tracer
	mir   *mirror
	rp    *replayer
	opSeq atomic.Int64
	kinds sync.Map // op ID → op kind
	reads atomic.Int64
}

func (r *runner) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], sample{v, int(r.round.Load())})
	r.mu.Unlock()
}

// get returns every sample of name.
func (r *runner) get(name string) []float64 {
	return r.pick(name, func(int) bool { return true })
}

// quietSamples returns the samples of name taken in the quiet rounds
// (see quietRounds); warm-up samples are never among them.
func (r *runner) quietSamples(name string) []float64 {
	return r.pick(name, func(k int) bool { return k >= 0 && (r.quiet == nil || r.quiet[k]) })
}

func (r *runner) pick(name string, keep func(round int) bool) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.samples[name] {
		if keep(s.round) {
			out = append(out, s.v)
		}
	}
	return out
}

// newOp allocates a traced operation ID of the given kind.
func (r *runner) newOp(kind string) int64 {
	id := r.opSeq.Add(1)
	r.kinds.Store(id, kind)
	return id
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every input follows from it")
	flag.IntVar(&cfg.seconds, "seconds", 35, "measured time in seconds, in rounds of the workload's loop and probes")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin/priveletd", "priveletd binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/run", "scratch directory (removed at exit)")
	flag.Parse()
	cfg.trace = trace == 1
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	os.Exit(run(cfg, wl))
}

func run(cfg config, wl *workloadDef) int {
	root := filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	e, err := newEnv(cfg.bin, root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer e.close()
	// An interrupted run still stops every process it started.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		e.close()
		os.Exit(1)
	}()

	r := &runner{cfg: cfg, e: e, samples: map[string][]sample{}}
	out := metrics{}
	if err := wl.measure(r, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	attempted, failed, wrong := r.tally.attempted.Load(), r.tally.failed.Load(), r.tally.wrong.Load()
	if attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	prov := r.provenance()
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pj)
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, out[n].Value, out[n].Unit)
	}
	res := struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{wrong == 0, attempted, failed, out}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong answer(s) or ε mismatch(es)\n", wrong)
		return 1
	}
	return 0
}

// provenance tags a result with what produced it, and with how much of
// the machine its host took while it measured.
func (r *runner) provenance() map[string]any {
	cfg := r.cfg
	commit := os.Getenv("PERFBENCH_COMMIT") // set by run.sh
	if commit == "" {
		commit = "unknown"
	}
	p := map[string]any{
		"workload":   cfg.workload,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"page_cache": "warm",
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	if !cfg.trace {
		p["rounds"], p["quiet_rounds"] = r.rounds, r.rounds
		if r.steal != nil {
			p["quiet_rounds"] = len(r.quiet)
			p["steal_s"] = sum(r.steal) / clockTicks
		}
	}
	return p
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/stat.
const clockTicks = 100

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
