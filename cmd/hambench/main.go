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
//	-cascade     also run the cascaded-search harness on the trained langid
//	             workload (single-core qps, p50/p95/p99, stage-1 hit-rate,
//	             widen-rate, speedup over the exact scan, mismatch audit) and
//	             record a cascade/* section in the report
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
//	             p50/p95/p99/p999, and the server's and the generator's
//	             shed rates apart from the error rate
//	-net-duration D  measurement window per net load point (default 2s)
//	-chaos       run the chaos soak: the serve engine under injected worker
//	             panics, latency spikes and a slow shard, failing on any
//	             violated acceptance criterion
//	-chaos-requests N  requests for the chaos soak (default 2048)
//	-list        print the available experiment ids and exit
//
// With -json and no experiment ids, only the benchmark suite runs; this is
// how BENCH.json, the repository's benchmark trajectory file, is produced
// (make bench). End-to-end serving throughput and latency on the paper's
// query are e2ebench's to measure (e2ebench/README.md); the harnesses here
// cover what it cannot: kernels, the cascade audit, open-loop overload
// and the kill/blackhole soaks.
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
	cascadeBench := flag.Bool("cascade", false, "also run the cascaded-search harness on the trained langid workload")
	chaos := flag.Bool("chaos", false, "run the chaos soak: serve engine under injected worker panics, latency spikes and a slow shard")
	chaosRequests := flag.Int("chaos-requests", 2048, "requests for the chaos soak")
	remoteFleet := flag.Bool("remotefleet", false, "also run the remote-fleet chaos soak (coordinator and TCP replica servers under a kill and a blackhole) and record a remote_fleet/* section in the report")
	remoteFleetRequests := flag.Int("remotefleet-requests", 2048, "requests per remote-fleet soak point")
	remoteFleetBinary := flag.String("remotefleet-binary", "", "hamserve binary for the remote-fleet soak: replicas run as real -replica subprocesses (default in-process servers over TCP)")
	netBench := flag.Bool("net", false, "also run the open-loop network load harness (binary and HTTP protocols at increasing offered load) and record a net/* section in the report")
	netDuration := flag.Duration("net-duration", 2*time.Second, "measurement window per net load point")
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
	if *jsonOut != "" || *cascadeBench || *remoteFleet || *netBench {
		if err := runBenchSuite(*jsonOut, *cascadeBench, *remoteFleet, *remoteFleetRequests, *remoteFleetBinary, *netBench, *netDuration, *trainChars, *testPerLang); err != nil {
			fmt.Fprintf(os.Stderr, "hambench: %v\n", err)
			os.Exit(1)
		}
	}
	args := flag.Args()
	if len(args) == 0 {
		if *jsonOut != "" || *chaos || *cascadeBench || *remoteFleet || *netBench {
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

// runBenchSuite runs the perf kernel benchmarks (plus, optionally, the
// remote-fleet soak, the open-loop network harness and the cascaded-search
// harness) and appends the report to the trajectory file at path.
func runBenchSuite(path string, cascade, remoteFleet bool, remoteFleetRequests int, remoteFleetBinary string, netBench bool, netDuration time.Duration, trainChars, testPerLang int) error {
	fmt.Fprintf(os.Stderr, "[running kernel benchmark suite (kernel %s)]\n", perf.KernelName)
	start := time.Now()
	rep := perf.RunKernels()
	for _, r := range rep.Results {
		fmt.Fprintf(os.Stderr, "  %-28s %12.1f ns/op %8d allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
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
			fmt.Fprintf(os.Stderr, "  %-28s offered %8.0f  %9.0f qps  p50 %8.1fµs  p99 %8.1fµs  p999 %9.1fµs  shed %5.1f%%  gen-shed %5.1f%%  err %5.1f%%\n",
				r.Name, r.OfferedQPS, r.QPS, r.P50Us, r.P99Us, r.P999Us, 100*r.ShedRate, 100*r.GeneratorShedRate, 100*r.ErrorRate)
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
