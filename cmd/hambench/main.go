// Command hambench regenerates the tables and figures of the HPCA'17 paper
// "Exploring Hyperdimensional Associative Memory".
//
// Usage:
//
//	hambench [flags] <experiment>...
//	hambench -list
//	hambench all
//
// Experiments: fig1, table1, table2, fig4, fig5, fig7, table3, fig9, fig10,
// fig11, fig12, fig13 (the paper's artifacts), plus ablate-blocksize,
// ablate-errormodel, ablate-stages and standby (this reproduction's
// ablations; see DESIGN.md for the per-experiment index).
//
// Flags:
//
//	-quick       run the reduced protocol (small corpora; for smoke runs)
//	-train N     training characters per language (overrides scale)
//	-test N      test sentences per language (overrides scale)
//	-seed N      experiment seed (default 2017)
//	-csv         emit CSV instead of aligned tables
//	-json FILE   run the kernel benchmark suite and append its report to the
//	             benchmark trajectory file (legacy single-report files are
//	             migrated to the trajectory format in place)
//	-serve       also run the closed-loop serve load harness (throughput and
//	             p50/p95/p99 latency at several concurrencies) and record a
//	             serve/* section in the report
//	-serve-requests N  requests per serve load point (default 2048)
//	-cascade     also run the cascaded-search harness on the trained langid
//	             workload (single-core qps, p50/p95/p99, stage-1 hit-rate,
//	             widen-rate, speedup over the exact scan, mismatch audit) and
//	             record a cascade/* section in the report
//	-fleet       also run the scatter-gather fleet harness (a healthy replica
//	             fleet, then the same fleet with one replica stalled and one
//	             crashed) and record a fleet/* section with qps, p50/p95/p99
//	             and the degraded-answer-rate
//	-fleet-requests N  requests per fleet load point (default 2048)
//	-remotefleet also run the remote-fleet chaos soak (a coordinator
//	             scatter-gathering over TCP to replica servers, with one
//	             replica killed and one link blackholed for the middle
//	             third of the run) and record a remote_fleet/* section
//	-remotefleet-requests N  requests per remote-fleet soak point (default 2048)
//	-remotefleet-binary P    hamserve binary: replicas run as real -replica
//	             subprocesses instead of in-process servers
//	-net         also run the open-loop network load harness (the binary
//	             wire protocol and HTTP/JSON at increasing offered load,
//	             zipfian keys, one deliberate overload point) and record a
//	             net/* section with offered vs. achieved qps,
//	             p50/p95/p99/p999 and shed/error rates
//	-net-duration D  measurement window per net load point (default 2s)
//	-coldstart   also run the cold-start comparison (train-and-save vs.
//	             checksummed snapshot load) and record a coldstart/* section
//	-learn       also run the train-while-serve harness (closed-loop search
//	             qps and p50/p95/p99 with ingest off vs on, reconcile
//	             latency, and the accuracy-vs-examples trajectory as new
//	             languages arrive mid-run) and record a learn/* section
//	-learn-duration D  measurement window per learn phase (default 2s)
//	-list        print the available experiment ids and exit
//
// With -json and no experiment ids, only the benchmark suite runs; this is
// how BENCH.json, the repository's benchmark trajectory file, is produced
// (make bench).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hdam/internal/experiments"
	"hdam/internal/perf"
	"hdam/internal/report"
)

func main() {
	quick := flag.Bool("quick", false, "run the reduced protocol")
	trainChars := flag.Int("train", 0, "training characters per language (0 = scale default)")
	testPerLang := flag.Int("test", 0, "test sentences per language (0 = scale default)")
	seed := flag.Uint64("seed", 2017, "experiment seed")
	csv := flag.Bool("csv", false, "emit CSV")
	outDir := flag.String("out", "", "also write each experiment's tables as CSV files into this directory")
	jsonOut := flag.String("json", "", "run the kernel benchmark suite and append its JSON report to this trajectory file")
	serveLoad := flag.Bool("serve", false, "also run the closed-loop serve load harness")
	serveRequests := flag.Int("serve-requests", 2048, "requests per serve load point")
	cascadeBench := flag.Bool("cascade", false, "also run the cascaded-search harness on the trained langid workload")
	coldStart := flag.Bool("coldstart", false, "also run the cold-start comparison (train-and-save vs. snapshot load) and record a coldstart/* section in the report")
	chaos := flag.Bool("chaos", false, "run the chaos soak: serve engine under injected worker panics, latency spikes and a slow shard")
	chaosRequests := flag.Int("chaos-requests", 2048, "requests for the chaos soak")
	fleetBench := flag.Bool("fleet", false, "also run the scatter-gather fleet harness (healthy and one-stall-one-crash points) and record a fleet/* section in the report")
	fleetRequests := flag.Int("fleet-requests", 2048, "requests per fleet load point")
	remoteFleet := flag.Bool("remotefleet", false, "also run the remote-fleet chaos soak (coordinator and TCP replica servers under a kill and a blackhole) and record a remote_fleet/* section in the report")
	remoteFleetRequests := flag.Int("remotefleet-requests", 2048, "requests per remote-fleet soak point")
	remoteFleetBinary := flag.String("remotefleet-binary", "", "hamserve binary for the remote-fleet soak: replicas run as real -replica subprocesses (default in-process servers over TCP)")
	netBench := flag.Bool("net", false, "also run the open-loop network load harness (binary and HTTP protocols at increasing offered load) and record a net/* section in the report")
	netDuration := flag.Duration("net-duration", 2*time.Second, "measurement window per net load point")
	learnBench := flag.Bool("learn", false, "also run the train-while-serve harness (search qps/p99 with ingest off vs on, reconcile latency, accuracy-vs-examples) and record a learn/* section in the report")
	learnDuration := flag.Duration("learn-duration", 2*time.Second, "measurement window per learn phase")
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()

	if *list {
		for _, id := range experiments.RunOrder {
			fmt.Println(id)
		}
		return
	}
	if *chaos {
		if err := runChaosSoak(*chaosRequests, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "hambench: %v\n", err)
			os.Exit(1)
		}
	}
	if *jsonOut != "" || *serveLoad || *coldStart || *cascadeBench || *fleetBench || *remoteFleet || *netBench || *learnBench {
		if err := runBenchSuite(*jsonOut, *serveLoad, *serveRequests, *coldStart, *cascadeBench, *fleetBench, *fleetRequests, *remoteFleet, *remoteFleetRequests, *remoteFleetBinary, *netBench, *netDuration, *learnBench, *learnDuration, *trainChars, *testPerLang); err != nil {
			fmt.Fprintf(os.Stderr, "hambench: %v\n", err)
			os.Exit(1)
		}
	}
	args := flag.Args()
	if len(args) == 0 {
		if *jsonOut != "" || *serveLoad || *coldStart || *chaos || *cascadeBench || *fleetBench || *remoteFleet || *netBench || *learnBench {
			return
		}
		fmt.Fprintln(os.Stderr, "usage: hambench [flags] <experiment>... | all   (-list for ids)")
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = experiments.RunOrder
	}

	scale := experiments.FullScale()
	if *quick {
		scale = experiments.QuickScale()
	}
	if *trainChars > 0 {
		scale.TrainChars = *trainChars
	}
	if *testPerLang > 0 {
		scale.TestPerLang = *testPerLang
	}
	env := experiments.NewEnv(scale, *seed)

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "hambench: %v\n", err)
			os.Exit(1)
		}
	}
	for _, id := range args {
		start := time.Now()
		tables, err := experiments.Run(id, env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hambench: %s: %v\n", id, err)
			os.Exit(1)
		}
		for k, t := range tables {
			var renderErr error
			if *csv {
				renderErr = t.RenderCSV(os.Stdout)
			} else {
				renderErr = t.Render(os.Stdout)
			}
			if renderErr != nil {
				fmt.Fprintf(os.Stderr, "hambench: rendering %s: %v\n", id, renderErr)
				os.Exit(1)
			}
			fmt.Println()
			if *outDir != "" {
				name := id
				if len(tables) > 1 {
					name = fmt.Sprintf("%s-%d", id, k)
				}
				if err := writeCSV(filepath.Join(*outDir, name+".csv"), t); err != nil {
					fmt.Fprintf(os.Stderr, "hambench: %v\n", err)
					os.Exit(1)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "[%s finished in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// runBenchSuite runs the perf kernel benchmarks (plus, optionally, the serve
// load harness, the cascaded-search harness and the cold-start comparison)
// and appends the report to the trajectory file at path.
func runBenchSuite(path string, serveLoad bool, serveRequests int, coldStart, cascade, fleetBench bool, fleetRequests int, remoteFleet bool, remoteFleetRequests int, remoteFleetBinary string, netBench bool, netDuration time.Duration, learnBench bool, learnDuration time.Duration, trainChars, testPerLang int) error {
	fmt.Fprintf(os.Stderr, "[running kernel benchmark suite (kernel %s)]\n", perf.KernelName)
	start := time.Now()
	rep := perf.RunKernels()
	for _, r := range rep.Results {
		fmt.Fprintf(os.Stderr, "  %-28s %12.1f ns/op %8d allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}
	if serveLoad {
		fmt.Fprintln(os.Stderr, "[running serve load harness]")
		results, err := perf.RunServe(perf.DefaultServeLoads(serveRequests))
		if err != nil {
			return err
		}
		rep.Serve = results
		for _, r := range results {
			fmt.Fprintf(os.Stderr, "  %-28s %9.0f qps  p50 %8.1fµs  p95 %8.1fµs  p99 %8.1fµs  %5.2fx\n",
				r.Name, r.QPS, r.P50Us, r.P95Us, r.P99Us, r.SpeedupVsSerial)
		}
	}
	if fleetBench {
		fmt.Fprintln(os.Stderr, "[running scatter-gather fleet harness]")
		points := perf.DefaultFleetPoints(fleetRequests)
		results, err := perf.RunFleet(points)
		if err != nil {
			return err
		}
		rep.Fleet = results
		var violated int
		for i, r := range results {
			fmt.Fprintf(os.Stderr, "  %-28s %9.0f qps  p50 %8.1fµs  p95 %8.1fµs  p99 %8.1fµs  degraded %5.1f%%  erasures %d\n",
				r.Name, r.QPS, r.P50Us, r.P95Us, r.P99Us, 100*r.DegradedRate, r.Erasures)
			for _, line := range r.Violations(points[i]) {
				fmt.Fprintf(os.Stderr, "  VIOLATED: %s\n", line)
				violated++
			}
		}
		if violated > 0 {
			return fmt.Errorf("fleet harness violated %d acceptance criteria", violated)
		}
	}
	if remoteFleet {
		fmt.Fprintln(os.Stderr, "[running remote-fleet chaos soak]")
		points := perf.DefaultRemoteFleetPoints(remoteFleetRequests, remoteFleetBinary)
		results, err := perf.RunRemoteFleet(points)
		if err != nil {
			return err
		}
		rep.RemoteFleet = results
		var violated int
		for i, r := range results {
			fmt.Fprintf(os.Stderr, "  %-28s %9.0f qps  p50 %8.1fµs  p99 %8.1fµs  degraded %5.1f%%  reconnects %d  failovers %d  subprocess=%v\n",
				r.Name, r.QPS, r.P50Us, r.P99Us, 100*r.DegradedRate, r.Reconnects, r.Failovers, r.Subprocess)
			for _, line := range r.Violations(points[i]) {
				fmt.Fprintf(os.Stderr, "  VIOLATED: %s\n", line)
				violated++
			}
		}
		if violated > 0 {
			return fmt.Errorf("remote-fleet soak violated %d acceptance criteria", violated)
		}
	}
	if netBench {
		fmt.Fprintln(os.Stderr, "[running open-loop network load harness]")
		results, err := perf.RunNet(perf.DefaultNetLoads(netDuration))
		if err != nil {
			return err
		}
		rep.Net = results
		for _, r := range results {
			fmt.Fprintf(os.Stderr, "  %-28s offered %8.0f  %9.0f qps  p50 %8.1fµs  p99 %8.1fµs  p999 %9.1fµs  shed %5.1f%%  err %5.1f%%\n",
				r.Name, r.OfferedQPS, r.QPS, r.P50Us, r.P99Us, r.P999Us, 100*r.ShedRate, 100*r.ErrorRate)
		}
	}
	if learnBench {
		fmt.Fprintln(os.Stderr, "[running train-while-serve harness]")
		results, err := perf.RunLearn(perf.LearnLoad{Duration: learnDuration})
		if err != nil {
			return err
		}
		rep.Learn = results
		for _, r := range results {
			fmt.Fprintf(os.Stderr, "  %-28s %9.0f qps  p50 %8.1fµs  p95 %8.1fµs  p99 %8.1fµs",
				r.Name, r.SearchQPS, r.P50Us, r.P95Us, r.P99Us)
			if r.IngestOn {
				fmt.Fprintf(os.Stderr, "  p99 %+5.1f%%  ingest %7.0f/s  reconciles %d (p50 %.0fµs, max %.0fµs)  swaps %d",
					r.P99DeltaPct, r.IngestQPS, r.Reconciles, r.ReconcileP50Us, r.ReconcileMaxUs, r.Swaps)
			}
			fmt.Fprintln(os.Stderr)
			for _, a := range r.Accuracy {
				fmt.Fprintf(os.Stderr, "    gen %-3d %7d examples  %2d classes  new-language accuracy %5.1f%%\n",
					a.Gen, a.Examples, a.Classes, 100*a.Accuracy)
			}
		}
	}
	if cascade {
		fmt.Fprintln(os.Stderr, "[running cascaded-search harness]")
		results, err := perf.RunCascade(trainChars, testPerLang, 0)
		if err != nil {
			return err
		}
		rep.Cascade = results
		for _, r := range results {
			fmt.Fprintf(os.Stderr, "  %-28s %9.0f qps  p50 %8.1fµs  p95 %8.1fµs  p99 %8.1fµs  %5.2fx", r.Name, r.QPS, r.P50Us, r.P95Us, r.P99Us, r.SpeedupVsExact)
			if r.SampledBits > 0 {
				fmt.Fprintf(os.Stderr, "  stage1-hit %5.1f%%  widen %4.1f%%  shortlist %.1f  mismatches %d",
					100*r.Stage1HitRate, 100*r.WidenRate, r.AvgShortlist, r.Mismatches)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	if coldStart {
		fmt.Fprintln(os.Stderr, "[running cold-start comparison]")
		results, err := perf.RunColdStart(perf.DefaultColdStartConfigs())
		if err != nil {
			return err
		}
		rep.ColdStart = results
		for _, r := range results {
			fmt.Fprintf(os.Stderr, "  %-28s train %9.1fms  save %7.1fms  load %7.2fms  %8.0fx  zero-copy=%v bit-identical=%v\n",
				r.Name, r.TrainMs, r.SaveMs, r.LoadMs, r.Speedup, r.ZeroCopy, r.BitIdentical)
		}
	}
	if path == "" {
		fmt.Fprintf(os.Stderr, "[suite finished in %s; no -json file, not recorded]\n",
			time.Since(start).Round(time.Millisecond))
		return nil
	}
	if err := perf.AppendReport(path, rep); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[suite finished in %s → appended to %s]\n", time.Since(start).Round(time.Millisecond), path)
	return nil
}

// runChaosSoak drives the serve engine under the seeded chaos protocol of
// EXPERIMENTS §18 and enforces its acceptance criteria: every request
// answered, non-faulted answers bit-identical to the serial loop, workers
// restarted after injected panics, bounded p99, zero goroutine leaks.
func runChaosSoak(requests int, seed uint64) error {
	fmt.Fprintln(os.Stderr, "[running chaos soak]")
	cfg := perf.DefaultChaosConfig()
	cfg.Requests = requests
	cfg.Seed = seed
	start := time.Now()
	r, err := perf.RunChaos(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "  %-24s %d requests: %d classified, %d faulted (typed errors), %d mismatches\n",
		r.Name, r.Requests, r.Classified, r.Faulted, r.Mismatches)
	fmt.Fprintf(os.Stderr, "  supervision: %d panics, %d restarts; %d shed\n",
		r.Panics, r.Restarts, r.Shed)
	fmt.Fprintf(os.Stderr, "  %9.0f qps  p50 %8.1fµs  p99 %8.1fµs  leaked goroutines %d\n",
		r.QPS, r.P50Us, r.P99Us, r.Leaked)
	if v := r.Violations(cfg); len(v) > 0 {
		for _, line := range v {
			fmt.Fprintf(os.Stderr, "  VIOLATED: %s\n", line)
		}
		return fmt.Errorf("chaos soak violated %d acceptance criteria", len(v))
	}
	fmt.Fprintf(os.Stderr, "[chaos soak passed in %s]\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// writeCSV writes one table to a CSV file.
func writeCSV(path string, t *report.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.RenderCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
