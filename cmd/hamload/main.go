// Command hamload is an open-loop load generator for a running hamserve:
// arrivals follow a Poisson (optionally on/off bursty) schedule at the
// offered rate regardless of how fast the server answers, query keys are
// drawn zipfian so a hot head of texts dominates, and per-request latency
// is measured from each request's *intended* send time — a stalled server
// inflates the recorded tail instead of silently slowing the generator
// (no coordinated omission).
//
// Usage:
//
//	hamload -addr 127.0.0.1:7401 -qps 15000 -duration 5s
//	hamload -protocol http -http 127.0.0.1:7402 -qps 2000
//	hamload -protocol both -qps 5000 -bursty -batch 8 -json
//
// It reports offered vs. achieved qps, p50/p95/p99/p999 latency, the shed
// rate of the server and of the generator (arrivals it never sent because
// 4,096 of its requests were already outstanding) apart, and the error
// rate; -json emits the same as a net/* report fragment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"hdam/internal/perf"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7401", "hamserve binary-protocol address")
	httpAddr := flag.String("http", "127.0.0.1:7402", "hamserve HTTP address")
	protocol := flag.String("protocol", "binary", "wire protocol to drive: binary | http | both")
	qps := flag.Float64("qps", 5000, "offered load, queries per second")
	duration := flag.Duration("duration", 5*time.Second, "measurement window per point")
	batch := flag.Int("batch", 1, "queries per frame (binary) or per POST (http)")
	conns := flag.Int("conns", 4, "client connections")
	bursty := flag.Bool("bursty", false, "on/off-modulated Poisson arrivals instead of steady Poisson")
	theta := flag.Float64("theta", 0.99, "zipf skew of the query keys, in (0,1)")
	keys := flag.Int("keys", 512, "distinct query texts")
	asJSON := flag.Bool("json", false, "emit results as JSON instead of a table")
	flag.Parse()

	var points []perf.NetPoint
	mk := func(proto string) perf.NetPoint {
		return perf.NetPoint{
			Name:       fmt.Sprintf("%s/%.0f", proto, *qps),
			Protocol:   proto,
			OfferedQPS: *qps,
			Duration:   *duration,
			Batch:      *batch,
			Conns:      *conns,
			Bursty:     *bursty,
			ZipfTheta:  *theta,
			Keys:       *keys,
		}
	}
	switch *protocol {
	case "binary", "http":
		points = append(points, mk(*protocol))
	case "both":
		points = append(points, mk("binary"), mk("http"))
	default:
		fmt.Fprintf(os.Stderr, "hamload: unknown -protocol %q (want binary, http or both)\n", *protocol)
		os.Exit(2)
	}

	texts := perf.NetTexts(1024)
	results := make([]perf.NetResult, 0, len(points))
	for _, p := range points {
		fmt.Fprintf(os.Stderr, "hamload: driving %s at %.0f qps for %s...\n", p.Protocol, p.OfferedQPS, p.Duration)
		res, err := perf.DriveNetPoint(*addr, *httpAddr, texts, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hamload: %v\n", err)
			os.Exit(1)
		}
		results = append(results, res)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "hamload: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("%-16s %10s %10s %9s %9s %9s %9s %7s %8s %7s\n",
		"point", "offered", "qps", "p50us", "p95us", "p99us", "p999us", "shed%", "genshed%", "err%")
	for _, r := range results {
		fmt.Printf("%-16s %10.0f %10.0f %9.0f %9.0f %9.0f %9.0f %7.2f %8.2f %7.2f\n",
			r.Name, r.OfferedQPS, r.QPS, r.P50Us, r.P95Us, r.P99Us, r.P999Us,
			100*r.ShedRate, 100*r.GeneratorShedRate, 100*r.ErrorRate)
	}
}
