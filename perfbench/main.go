// Command perfbench is the repository benchmark. It runs one named workload
// through the program's public entry points (sim.RunParallel,
// sim.RunSequential, sim.RunWorker over mpi.NetTransport, and server.New
// behind a loopback listener), checks every output against a reference, and
// prints one JSON result line.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload table6_full|serve_durable --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload with spans and the engine's own accounting on, replays each
// layer's public functions on the workload's inputs, reports the per-layer
// metrics, and writes the spans as Chrome trace-event JSON. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/rng"
)

// sizes are the workloads' input sizes and repetition counts.
type sizes struct {
	table6SSets, table6Gens int
	cachedSSets, exactSSets int
	serveGens               int
	// pool is how many distinct job configurations a run cycles through.
	pool int
	// setupReps is how many set-ups setup_s takes the median of.
	setupReps int
	// fsyncReps is how many writes the durability replays take the median
	// of.
	fsyncReps int
	// replay is the time budget of each kernel replay.
	replay time.Duration
}

var fullSize = sizes{
	table6SSets: 64, table6Gens: 25,
	cachedSSets: 24, exactSSets: 10, serveGens: 80,
	pool: 6, setupReps: 25, fsyncReps: 20, replay: 300 * time.Millisecond,
}

// env is one run's context.
type env struct {
	seed   uint64
	window time.Duration
	traced bool
	tr     *tracer
	// dir holds the run's sockets and data directories.
	dir string
	sz  sizes
	rep *report
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) error{
	"table6_full":   runTable6,
	"serve_durable": runServeWorkload,
}

// poolSeed derives the seed of a run's i-th job configuration.
func poolSeed(seed uint64, i int) uint64 { return rng.New(seed).Derive(uint64(i)).Uint64() }

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

// runDeadline stops a run that hangs well before the 180 s a run may take.
const runDeadline = 170 * time.Second

func main() {
	time.AfterFunc(runDeadline, func() {
		logf("run exceeded %v", runDeadline)
		os.Exit(2)
	})
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: table6_full or serve_durable")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	secs := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || fs.NArg() != 0 || *secs <= 0 || (*trace != 0 && *trace != 1) {
		logf("usage: --workload table6_full|serve_durable --seed N --seconds S --trace 0|1")
		return 2
	}
	dir := filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	tracePath := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
	window := time.Duration(*secs * float64(time.Second))
	res, err := runWorkload(*name, *seed, window, *trace == 1, fullSize, dir, tracePath)
	if err != nil {
		logf("%s: %v", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("encoding result: %v", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload runs one workload in dir (created and removed here) and
// returns its result line. Traced runs also write their spans to tracePath.
func runWorkload(name string, seed uint64, window time.Duration, traced bool, sz sizes, dir, tracePath string) (result, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, window: window, traced: traced, dir: dir, sz: sz, rep: newReport()}
	if traced {
		e.tr = newTracer()
	}
	if err := workloads[name](e); err != nil {
		return result{}, err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		for _, d := range perLayer {
			if !measures(name, d.Name) {
				e.rep.set(d.Name, 0)
			}
		}
		if err := e.tr.write(tracePath); err != nil {
			return result{}, err
		}
		logf("trace written to %s", tracePath)
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		e.rep.set("peak_rss_mb", rss)
	}
	return e.rep.finish(defs)
}
