// Command perfbench is the repository's end-to-end benchmark. It drives
// an embedded Vortex region through the public API with one of three
// workloads, each loading a different set of layers:
//
//	ingest  the write path: two closed-loop writers append to their own
//	        UNBUFFERED streams; heartbeats and WOS→ROS conversion run
//	        every K acknowledged batches.
//	scan    the read path: a fully converted keyless event table is
//	        queried with a fixed rotation of four query shapes, then
//	        drained through read sessions.
//	cdc     writes beside reads: upsert/delete churn into a keyed table,
//	        a joined GROUP BY materialized view refreshed every epoch,
//	        and a filtered aggregate on the keyed table.
//
// Every run checks the system's answers against references the benchmark
// computes from its own seeded inputs, and prints one JSON result line:
//
//	go run . --workload ingest --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it reports per-layer metrics instead, from spans and
// counter snapshots taken around every call into the system.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"vortex"
)

// rep is one repetition of a workload: a fresh region, its set-up, a
// timed phase of fixed work in one or more rounds, and the reference
// checks.
type rep struct {
	setup  time.Duration
	wall   time.Duration // timed phase
	rounds []round
	heapMB float64
	calls  atomic.Int64 // calls into the system
	// obs are workload-side observations (query and refresh statistics,
	// user bytes) the per-layer metrics divide by.
	obs map[string]float64
}

func newRep() *rep { return &rep{obs: map[string]float64{}} }

// round is a slice of a timed phase that yields one sample of each
// per-round metric. A run reports the median over its rounds, so a burst
// of interference that hits a minority of rounds does not move it.
type round struct {
	rows int64         // rows through the workload's main data path
	busy time.Duration // wall time that moved them
	// primary holds the latencies of the workload's main closed-loop
	// call; aux those of its secondary call.
	primary []time.Duration
	aux     []time.Duration
}

// params fixes what one repetition does.
type params struct {
	seed  int64
	size  sizes
	trace *tracer
	// corrupt perturbs one reference answer; the self-test uses it to
	// show that a wrong answer fails the run.
	corrupt bool
}

// ref returns a reference count, perturbed when p.corrupt is set.
func (p *params) ref(n int64) int64 {
	if p.corrupt {
		return n + 1
	}
	return n
}

var workloads = map[string]func(ctx context.Context, p *params) (*rep, error){
	"ingest": runIngest,
	"scan":   runScan,
	"cdc":    runCDC,
}

// sizes fix the work of one repetition of each workload.
type sizes struct {
	ingestBatches int // per writer, timed
	ingestWarm    int // per writer, in set-up
	ingestEvery   int // acknowledged batches between maintenance passes

	scanRows      int
	scanRounds    int
	scanRotations int // per round, of the four query shapes
	scanSessions  int // per round, full-table read sessions drained
	// scanCacheEdges fails the run unless the table's ROS bytes sit clear
	// of both caches' edges (the self-test's tiny table cannot).
	scanCacheEdges bool

	cdcOrders    int
	cdcCustomers int
	cdcRounds    int
	cdcEpochs    int // per round; the view is checked after each round
	cdcChurn     int // change rows per epoch
}

var fullSizes = sizes{
	ingestBatches: 500,
	ingestWarm:    50,
	ingestEvery:   100,

	scanRows:       90_000,
	scanRounds:     4,
	scanRotations:  8,
	scanSessions:   2,
	scanCacheEdges: true,

	cdcOrders:    30_000,
	cdcCustomers: 300,
	cdcRounds:    4,
	cdcEpochs:    10,
	cdcChurn:     500,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options configure one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	size     sizes
	corrupt  bool
	// minReps is the fewest repetitions a run makes; set-up time is
	// the median over them.
	minReps int
	// budget stops starting repetitions once this much wall time has
	// passed, so a slow system still ends the run in time.
	budget time.Duration
}

// run repeats the workload until the timed phases add up to
// o.seconds (and at least o.minReps times) and reduces the repetitions
// to the run's metrics. In trace mode repetitions alternate untraced
// and traced; the traced ones give the per-layer metrics, and the two
// kinds together the tracing overhead.
func run(ctx context.Context, o options) (*result, error) {
	runRep, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	tr := newTracer()
	p := &params{seed: o.seed, size: o.size, trace: tr, corrupt: o.corrupt}
	minReps := o.minReps
	if o.trace && minReps < 4 {
		minReps = 4
	}
	start := time.Now()
	var reps, traced []*rep
	var timed time.Duration
	var calls int64
	for i := 0; i < minReps || (timed.Seconds() < o.seconds && time.Since(start) < o.budget); i++ {
		tr.on = o.trace && i%2 == 1
		settle()
		r, err := runRep(ctx, p)
		tr.snap = nil
		if r != nil {
			calls += r.calls.Load()
		}
		if err != nil {
			return &result{Attempted: max(calls, 1), Failed: 1, Metrics: map[string]metric{}}, err
		}
		timed += r.wall
		if tr.on {
			traced = append(traced, r)
		} else {
			reps = append(reps, r)
		}
	}
	res := &result{Correct: true, Attempted: calls}
	if o.trace {
		res.Metrics = layerMetrics(tr.aggregate(), reps, traced)
		if o.traceOut != "" {
			if err := tr.write(o.traceOut); err != nil {
				return nil, err
			}
		}
	} else {
		res.Metrics = endToEnd(o.workload, reps)
	}
	return res, nil
}

// settle returns the memory of the previous repetition to the runtime,
// so every repetition starts from the same heap.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// liveHeapMB forces a collection and returns the live heap, with db (the
// region under test) still reachable.
func liveHeapMB(db *vortex.DB) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(db)
	return float64(m.HeapAlloc) / (1 << 20)
}

// meanMS returns the mean of samples in milliseconds.
func meanMS(samples []time.Duration) float64 {
	var total time.Duration
	for _, d := range samples {
		total += d
	}
	return ratio(ms(total), float64(len(samples)))
}

// endToEnd reduces untraced repetitions to the end-to-end metrics:
// set-up and heap are medians over repetitions; throughput, the primary
// call's median latency and the secondary call's mean latency are
// medians over rounds of each round's value; the tail is described at
// tailMS. The secondary call is a mean, not a median: ingest's
// maintenance passes convert one, two or no fragments each, and the
// median of such a mix jumps between modes while the mean does not.
func endToEnd(name string, reps []*rep) map[string]metric {
	var setup, heap, rate, p50, aux []float64
	var rounds []round
	for _, r := range reps {
		setup = append(setup, r.setup.Seconds())
		heap = append(heap, r.heapMB)
		for _, rd := range r.rounds {
			rate = append(rate, float64(rd.rows)/rd.busy.Seconds())
			p50 = append(p50, percentileMS(rd.primary, 0.5))
			aux = append(aux, meanMS(rd.aux))
			rounds = append(rounds, rd)
		}
	}
	return map[string]metric{
		"setup_s":         {median(setup), "s"},
		"live_heap_mb":    {median(heap), "MB"},
		"rows_per_s":      {median(rate), "1/s"},
		"latency_p50_ms":  {median(p50), "ms"},
		"latency_tail_ms": {tailMS(rounds, tailQuantiles[name]), "ms"},
		"aux_mean_ms":     {median(aux), "ms"},
	}
}

// tailQuantiles is each workload's reported tail: the highest quantile
// that leaves at least ten calls beyond it in a run of the minimum
// repetitions (in each round, for ingest).
var tailQuantiles = map[string]float64{"ingest": 0.99, "scan": 0.95, "cdc": 0.9}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "ingest | scan | cdc")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "timed-phase seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "file the traced run writes its spans to (JSON lines)")
	flag.Parse()
	o.trace = trace == 1
	o.size = fullSizes
	o.minReps = 3
	o.budget = 120 * time.Second

	res, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(2)
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// errMismatch marks a reference check that failed.
var errMismatch = errors.New("reference mismatch")

func mismatch(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}
