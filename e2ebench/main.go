// Command e2ebench is the repository's end-to-end benchmark. For one
// workload it boots hamserve's serving stack in-process (training, the
// micro-batching engine or the replica fleet, the online learner, the
// binary-protocol server), drives it over loopback with closed-loop
// netserve clients, checks every answer against a reference, and prints
// one JSON result line.
//
// Usage:
//
//	e2ebench --workload sentence|fleet|learn --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries per-layer metrics, timed by wrappers around each layer's
// public functions, and the spans are written to
// .bench_build/trace/<workload>-spans.csv. The line before the result
// records the run's metadata.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hdam/internal/core"
)

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outDir holds everything a run leaves behind, relative to the checkout.
const outDir = ".bench_build"

func main() {
	name := flag.String("workload", "sentence", "workload to run")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 25, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: want --workload one of %v, --seconds >= 1, --trace 0 or 1\n", workloadNames())
		os.Exit(2)
	}
	meta, res, err := run(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	m, err := json.Marshal(map[string]any{"meta": meta})
	if err == nil {
		var r []byte
		r, err = json.Marshal(res) // fails on a NaN or infinite metric
		if err == nil {
			fmt.Println(string(m))
			fmt.Println(string(r))
			return
		}
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s: encoding the result: %v\n", w.name, err)
	os.Exit(1)
}

func run(w workload, seed uint64, seconds int, traced bool) (map[string]any, *result, error) {
	langs := catalog()
	in, err := makeInputs(w, langs, seed)
	if err != nil {
		return nil, nil, err
	}
	var t *tracer
	if traced {
		t = newTracer(in.queries, spanCapacity)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	learnDir, err := os.MkdirTemp(outDir, "learn-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(learnDir)

	// Boot the stack setupRuns times; the last one serves the window.
	var st *stack
	var setups, trains, listens []time.Duration
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			st.close()
		}
		dir := filepath.Join(learnDir, fmt.Sprint(i))
		start := time.Now()
		st, err = buildStack(w, langs, t, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start))
		trains = append(trains, st.trainTime)
		listens = append(listens, st.listenTime)
	}
	defer st.close()

	d := &runner{w: w, in: in, st: st, t: t, labels: st.tr.Memory.Labels()}
	if !w.learn {
		d.refs = references(st.tr.Memory, in.queries, pipeSeed)
	}
	var before serveCounters
	before.read(st)
	m := d.drive(seconds)
	var after serveCounters
	after.read(st)

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var okTraced, okBare, wrong uint64
	for _, cs := range m.conns {
		res.Attempted += cs.attempted
		res.Failed += cs.failed
		okTraced += cs.okTraced
		okBare += cs.okBare
		wrong += cs.wrong
		if cs.errSample != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: failed operation: %v\n", w.name, cs.errSample)
		}
	}
	var lc learnCheck
	if w.learn {
		lc = d.checkLearn(m)
		if lc.err != nil {
			return nil, nil, lc.err
		}
		wrong += lc.wrong
		res.Failed += lc.wrong
		if !lc.identical {
			fmt.Fprintf(os.Stderr, "e2ebench: learn: final generation differs from learn.TrainOffline over the acknowledged examples\n")
		}
	}
	res.Correct = wrong == 0 && (!w.learn || lc.identical)

	add := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	win := d.window()
	if !traced {
		add("setup_s", median(setups).Seconds(), "s")
		add("throughput_rps", median(win.rps), "1/s")
		add("latency_p50_ms", ms(median(win.p50)), "ms")
		add("latency_p99_ms", ms(median(win.p99)), "ms")
		add("heap_mb", m.heapMB, "MB")
	} else {
		tracedRPS := float64(okTraced) / m.tracedTime.Seconds()
		bareRPS := float64(okBare) / m.bareTime.Seconds()
		add("trace.traced_rps", tracedRPS, "1/s")
		add("trace.untraced_rps", bareRPS, "1/s")
		add("trace.overhead_pct", 100*(1-tracedRPS/bareRPS), "%")
		add("trace.spans_dropped", float64(t.rec.dropped.Load()), "count")

		add("lang.train_s", median(trains).Seconds(), "s")
		add("netserve.listen_ms", ms(median(listens)), "ms")
		add("netserve.self_p50_us", us(t.self.quantile(50)), "us")
		add("netserve.frames", float64(after.net.Frames-before.net.Frames), "count")
		add("netserve.inflight_shed", float64(after.net.InflightShed-before.net.InflightShed), "count")

		backendP50, backendP99 := us(t.backend.quantile(50)), us(t.backend.quantile(99))
		var engineP50, engineP99, askP50, askP99 float64
		if w.fleet {
			askP50, askP99 = backendP50, backendP99
		} else {
			engineP50, engineP99 = backendP50, backendP99
		}
		add("serve.engine_p50_us", engineP50, "us")
		add("serve.engine_p99_us", engineP99, "us")
		add("serve.avg_batch", after.avgBatch(before), "count")
		add("serve.rejected", float64(after.rejected-before.rejected), "count")
		add("serve.shed", float64(after.shed-before.shed), "count")
		add("serve.swap_ms_p50", ms(t.swap.quantile(50)), "ms")
		add("serve.swap_ms_max", ms(t.swapMax), "ms")

		encUs, grams := replayEncode(in.queries)
		add("encoder.encode_us", encUs, "us")
		add("encoder.ngrams_per_text", grams, "count")
		add("search.query_us", us(t.search.quantile(50)), "us")
		add("search.queries", float64(t.searches.Load()), "count")

		add("fleet.ask_p50_us", askP50, "us")
		add("fleet.ask_p99_us", askP99, "us")
		perAsk := 0.0
		if answered := after.fleet.Answered - before.fleet.Answered; answered > 0 {
			perAsk = float64(after.replicaCompleted-before.replicaCompleted) / float64(answered)
		}
		add("fleet.replica_requests_per_ask", perAsk, "count")
		add("fleet.retried", float64(after.fleet.Retried-before.fleet.Retried), "count")
		add("fleet.hedged", float64(after.fleet.Hedged-before.fleet.Hedged), "count")
		add("fleet.degraded", float64(after.fleet.Degraded-before.fleet.Degraded), "count")

		var ingestEPS float64
		if w.learn {
			ingestEPS = float64(m.conns[1].acceptedWindow) / m.window.Seconds()
		}
		add("learn.ingest_eps", ingestEPS, "1/s")
		add("learn.ack_p50_us", us(t.learnAck.quantile(50)), "us")
		add("learn.reconcile_ms_p50", ms(t.reconcile.quantile(50)), "ms")
		add("learn.reconcile_ms_max", ms(t.reconcileMax), "ms")
		add("learn.examples_folded", float64(lc.folded), "count")
		add("learn.rejected", float64(after.learn.Rejected), "count")
		add("learn.new_lang_accuracy", lc.accuracy, "fraction")
		add("store.check_ms_p50", ms(t.check.quantile(50)), "ms")
		add("store.snapshot_kb", lc.snapKB, "KiB")

		add("runtime.sched_latency_p999_us", 1e6*histQuantile(m.rt.sched, m.rt.schedB, 99.9), "us")
		add("runtime.gc_pause_p99_us", 1e6*histQuantile(m.rt.gcPause, m.rt.pauseB, 99), "us")
		add("runtime.gc_cycles", float64(m.rt.gcCycles), "count")
		add("runtime.cpu_share", m.rt.cpu.Seconds()/(m.rt.wall.Seconds()*float64(runtime.NumCPU())), "fraction")

		if err := os.MkdirAll(filepath.Join(outDir, "trace"), 0o755); err != nil {
			return nil, nil, err
		}
		if err := t.rec.writeCSV(filepath.Join(outDir, "trace", w.name+"-spans.csv")); err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	meta := map[string]any{
		"workload":     w.name,
		"seed":         seed,
		"seconds":      seconds,
		"trace":        traced,
		"num_cpu":      runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"kernel":       core.KernelName,
		"query_pool":   len(in.queries),
		"example_pool": len(in.frames) * frameExamples,
		"setups":       setupRuns,
		"window_s":     m.window.Seconds(),
		"samples":      win.samples,
		"sub_rps":      win.rps,
		"sub_p50_ms":   durationsMS(win.p50),
		"sub_p99_ms":   durationsMS(win.p99),
		"setup_s":      durationsS(setups),
	}
	if w.learn {
		meta["learn_identical_to_offline"] = lc.identical
		meta["learn_examples"] = lc.folded
	}
	return meta, res, nil
}
