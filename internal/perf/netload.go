package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hdam/internal/assoc"
	"hdam/internal/netserve"
	"hdam/internal/serve"
	"hdam/internal/textgen"
)

// NetPoint is one offered-load level of the open-loop network harness.
type NetPoint struct {
	Name       string        // point label ("binary/8k")
	Protocol   string        // "binary" or "http"
	OfferedQPS float64       // open-loop arrival rate, in queries/s
	Duration   time.Duration // measurement window (default 2s)
	Batch      int           // queries per frame / per POST (default 1)
	Conns      int           // client connections (default 4)
	Bursty     bool          // on/off-modulated Poisson arrivals
	ZipfTheta  float64       // query-key skew (default 0.99)
	Keys       int           // distinct query texts (default 512)
}

// netRuns is how many times RunNet runs each point, each on a fresh
// server, keeping the run with the median p50. Points near saturation on
// a 2-vCPU host that also runs the generator (http/10k) read a p50 of 1–3
// ms in most runs, but a transient stall can leave a backlog the window
// never drains (one run read 124 ms); the median keeps one stall off the
// record.
const netRuns = 3

// NetResult is one measured point. Latency percentiles are computed from
// each request's *intended* send time under the open-loop schedule, so a
// stalled server inflates the tail instead of silently slowing the
// generator (no coordinated omission).
type NetResult struct {
	Name       string  `json:"name"`
	Protocol   string  `json:"protocol"`
	OfferedQPS float64 `json:"offered_qps"`
	QPS        float64 `json:"qps"` // answered-OK throughput
	Requests   int     `json:"requests"`
	Conns      int     `json:"conns"`
	Batch      int     `json:"batch"`
	Bursty     bool    `json:"bursty,omitempty"`
	Runs       int     `json:"runs"` // runs of the point; this is the one with the median p50
	ZipfTheta  float64 `json:"zipf_theta"`
	P50Us      float64 `json:"p50_us"`
	P95Us      float64 `json:"p95_us"`
	P99Us      float64 `json:"p99_us"`
	P999Us     float64 `json:"p999_us"`
	// ShedRate is the fraction the server refused (its in-flight caps and
	// engine admission: overloaded / drained) — the server protecting its
	// tail. GeneratorShedRate is the fraction the generator itself never
	// sent because maxInflight of its requests were already outstanding.
	// ErrorRate is everything else that failed (transport errors, internal
	// faults).
	ShedRate          float64 `json:"shed_rate"`
	GeneratorShedRate float64 `json:"generator_shed_rate"`
	ErrorRate         float64 `json:"error_rate"`
}

// DefaultNetLoads is the sweep make bench -net records: both protocols at
// increasing offered load, ending past saturation so the overload behavior
// (shed, not latency collapse) is on the record, plus a bursty and a
// batched binary point.
func DefaultNetLoads(dur time.Duration) []NetPoint {
	return []NetPoint{
		// HTTP/1.1 carries one request per connection, so its points get
		// enough connections that the protocol cost — not the connection
		// count — is what saturates.
		{Name: "http/1k", Protocol: "http", OfferedQPS: 1000, Conns: 64, Duration: dur},
		{Name: "http/10k", Protocol: "http", OfferedQPS: 10000, Conns: 64, Duration: dur},
		{Name: "http/16k-overload", Protocol: "http", OfferedQPS: 16000, Conns: 256, Duration: dur},
		{Name: "binary/5k", Protocol: "binary", OfferedQPS: 5000, Duration: dur},
		{Name: "binary/15k", Protocol: "binary", OfferedQPS: 15000, Duration: dur},
		{Name: "binary/40k-overload", Protocol: "binary", OfferedQPS: 40000, Duration: dur},
		{Name: "binary/15k-bursty", Protocol: "binary", OfferedQPS: 15000, Duration: dur, Bursty: true},
		{Name: "binary/30k-batch8", Protocol: "binary", OfferedQPS: 30000, Duration: dur, Batch: 8},
		{Name: "binary/50k-batch32", Protocol: "binary", OfferedQPS: 50000, Duration: dur, Batch: 32},
	}
}

func (p NetPoint) withDefaults() NetPoint {
	if p.Duration <= 0 {
		p.Duration = 2 * time.Second
	}
	if p.Batch <= 0 {
		p.Batch = 1
	}
	if p.Conns <= 0 {
		p.Conns = 4
	}
	if p.ZipfTheta <= 0 || p.ZipfTheta >= 1 {
		p.ZipfTheta = 0.99
	}
	if p.Keys <= 0 {
		p.Keys = 512
	}
	return p
}

// NetTexts generates short query texts: at ~12 characters the backend
// costs ~5-15µs per query, so the measurement contrasts the two wire
// protocols instead of re-measuring the encoder. Texts rotate through the
// language catalog, so zipf-skewed key choice skews class mix too.
func NetTexts(n int) []string {
	cfg := textgen.DefaultConfig()
	cfg.Seed = benchSeed
	langs := textgen.Catalog(cfg)
	rng := rand.New(rand.NewPCG(benchSeed, 0x0e7))
	texts := make([]string, n)
	for i := range texts {
		texts[i] = langs[i%len(langs)].GenerateSentence(12, rng)
	}
	return texts
}

// maxInflight bounds the generator's outstanding requests on either
// protocol; an arrival that would exceed it is recorded as generator shed
// instead of spawning unboundedly when the server is past saturation.
// Below the bound, an HTTP request waiting for one of the point's
// connections is not refused: it queues in the client transport, and that
// wait counts in its latency, measured from the intended send time.
const maxInflight = 4096

// outcome classification for one request.
const (
	outcomeOK = iota
	outcomeShed
	outcomeGenShed
	outcomeErr
)

// netCollector accumulates per-request outcomes from all dispatchers.
type netCollector struct {
	mu      sync.Mutex
	lats    []time.Duration // answered-OK latency from intended send
	ok      int
	shed    int // refused by the server
	genShed int // never sent: the generator was at maxInflight
	errs    int
	last    atomic.Int64 // latest completion, ns offset from start
}

func (c *netCollector) record(kind int, lat time.Duration, n int, done time.Duration) {
	c.mu.Lock()
	switch kind {
	case outcomeOK:
		c.ok += n
		for i := 0; i < n; i++ {
			c.lats = append(c.lats, lat)
		}
	case outcomeShed:
		c.shed += n
	case outcomeGenShed:
		c.genShed += n
	default:
		c.errs += n
	}
	c.mu.Unlock()
	for {
		old := c.last.Load()
		if int64(done) <= old || c.last.CompareAndSwap(old, int64(done)) {
			return
		}
	}
}

// RunNet runs each point netRuns times, each time booting a fresh engine +
// network server and driving the open-loop schedule against it, and
// returns one NetResult per point: the run with the median p50.
func RunNet(points []NetPoint) ([]NetResult, error) {
	f := buildFixtures()
	texts := NetTexts(1024)
	out := make([]NetResult, 0, len(points))
	for _, p := range points {
		runs := make([]NetResult, netRuns)
		for i := range runs {
			res, err := runNetPoint(f, texts, p.withDefaults())
			if err != nil {
				return out, fmt.Errorf("net point %s: %w", p.Name, err)
			}
			runs[i] = res
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].P50Us < runs[j].P50Us })
		res := runs[netRuns/2]
		res.Runs = netRuns
		out = append(out, res)
	}
	return out, nil
}

func runNetPoint(f *fixtures, texts []string, p NetPoint) (NetResult, error) {
	eng, err := serve.New(f.mem, assoc.NewExact(f.mem), benchEncoderFactory(), serve.Config{
		Workers:  runtime.GOMAXPROCS(0),
		MaxBatch: 64,
		Queue:    512,
		Policy:   serve.Reject, // overload must shed, not queue without bound
		Seed:     benchSeed,
	})
	if err != nil {
		return NetResult{}, err
	}
	srv, err := netserve.New(netserve.EngineBackend(eng), netserve.Config{
		BinaryAddr: "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
	})
	if err != nil {
		eng.Close()
		return NetResult{}, err
	}
	defer srv.Close()
	return DriveNetPoint(srv.BinaryAddr().String(), srv.HTTPAddr().String(), texts, p)
}

// DriveNetPoint runs one open-loop load point against an already-running
// server (in-process or external — cmd/hamload targets a live hamserve).
// The point's protocol selects which address is used.
func DriveNetPoint(binAddr, httpAddr string, texts []string, p NetPoint) (NetResult, error) {
	p = p.withDefaults()
	if p.Keys > len(texts) {
		p.Keys = len(texts)
	}
	rng := rand.New(rand.NewPCG(benchSeed, 0x10ad))
	zipf := NewZipf(uint64(p.Keys), p.ZipfTheta, rng)
	sched := arrivalSchedule(p, rng)
	if len(sched) == 0 {
		return NetResult{}, fmt.Errorf("no arrivals for %s", p.Name)
	}

	col := &netCollector{}
	var inflight atomic.Int64
	var wg sync.WaitGroup // dispatchers
	var reqWG sync.WaitGroup

	// Each arrival's frame of texts is drawn up front so dispatchers spend
	// the window on pacing and I/O only.
	frames := make([][]string, len(sched))
	for i := range frames {
		frame := make([]string, p.Batch)
		for j := range frame {
			frame[j] = texts[zipf.Next()]
		}
		frames[i] = frame
	}

	var send func(conn int, frame []string, intended time.Duration, start time.Time)
	var warm func(conn int)
	switch p.Protocol {
	case "binary":
		if binAddr == "" {
			return NetResult{}, fmt.Errorf("point %s: no binary address", p.Name)
		}
		clients := make([]*netserve.Client, p.Conns)
		for i := range clients {
			c, err := netserve.Dial(binAddr, 2*time.Second)
			if err != nil {
				return NetResult{}, err
			}
			defer c.Close()
			clients[i] = c
		}
		warm = func(conn int) { clients[conn].Ask(frames[0], 0) }
		send = func(conn int, frame []string, intended time.Duration, start time.Time) {
			ch, err := clients[conn].Go(frame, 0)
			if err != nil {
				reqWG.Done()
				inflight.Add(-1)
				col.record(outcomeErr, 0, len(frame), time.Since(start))
				return
			}
			go func() {
				defer reqWG.Done()
				defer inflight.Add(-1)
				b := <-ch
				done := time.Since(start)
				if b.Err != nil {
					col.record(outcomeErr, 0, len(frame), done)
					return
				}
				lat := done - intended
				nOK, nShed, nErr := 0, 0, 0
				for _, a := range b.Answers {
					switch a.Status {
					case netserve.StatusOK, netserve.StatusNoNGrams:
						nOK++
					case netserve.StatusOverloaded, netserve.StatusDrained:
						nShed++
					default:
						nErr++
					}
				}
				col.record(outcomeOK, lat, nOK, done)
				col.record(outcomeShed, 0, nShed, done)
				col.record(outcomeErr, 0, nErr, done)
			}()
		}
	case "http":
		if httpAddr == "" {
			return NetResult{}, fmt.Errorf("point %s: no http address", p.Name)
		}
		tr := &http.Transport{
			MaxIdleConns:        p.Conns,
			MaxIdleConnsPerHost: p.Conns,
			MaxConnsPerHost:     p.Conns,
		}
		defer tr.CloseIdleConnections()
		hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
		url := "http://" + httpAddr + "/classify"
		warm = func(int) {
			body, _ := json.Marshal(map[string]any{"texts": frames[0]})
			if resp, err := hc.Post(url, "application/json", bytes.NewReader(body)); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		send = func(conn int, frame []string, intended time.Duration, start time.Time) {
			go func() {
				defer reqWG.Done()
				defer inflight.Add(-1)
				body, _ := json.Marshal(map[string]any{"texts": frame})
				resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
				done := time.Since(start)
				if err != nil {
					col.record(outcomeErr, 0, len(frame), done)
					return
				}
				var cr struct {
					Answers []struct {
						Err string `json:"err"`
					} `json:"answers"`
				}
				derr := json.NewDecoder(resp.Body).Decode(&cr)
				resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable {
					col.record(outcomeShed, 0, len(frame), done) // refused at the http in-flight cap
					return
				}
				if resp.StatusCode != http.StatusOK || derr != nil {
					col.record(outcomeErr, 0, len(frame), done)
					return
				}
				lat := done - intended
				nOK, nShed := 0, 0
				for _, a := range cr.Answers {
					if a.Err == "" {
						nOK++
					} else {
						nShed++ // engine refusals surface as per-answer errors
					}
				}
				col.record(outcomeOK, lat, nOK, done)
				col.record(outcomeShed, 0, nShed, done)
			}()
		}
	default:
		return NetResult{}, fmt.Errorf("unknown protocol %q", p.Protocol)
	}

	// Warm every connection (and the server's hot paths) closed-loop before
	// the measured window opens: connection setup, first-use allocation, and
	// heap growth otherwise land in the first point's tail.
	var warmWG sync.WaitGroup
	for conn := 0; conn < p.Conns; conn++ {
		warmWG.Add(1)
		go func(conn int) {
			defer warmWG.Done()
			for i := 0; i < 16; i++ {
				warm(conn)
			}
		}(conn)
	}
	warmWG.Wait()

	// Dispatchers: round-robin arrivals across connections, each pacing its
	// own sub-schedule. Arrivals overdue at wake-up dispatch immediately in
	// a burst — correct under open-loop accounting because latency is
	// measured from the intended time, not the actual send.
	start := time.Now()
	for conn := 0; conn < p.Conns; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := conn; i < len(sched); i += p.Conns {
				intended := sched[i]
				if d := intended - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				if inflight.Add(1) > maxInflight {
					inflight.Add(-1)
					col.record(outcomeGenShed, 0, len(frames[i]), time.Since(start))
					continue
				}
				reqWG.Add(1)
				send(conn, frames[i], intended, start)
			}
		}(conn)
	}
	wg.Wait()
	reqWG.Wait()

	sort.Slice(col.lats, func(i, j int) bool { return col.lats[i] < col.lats[j] })
	total := col.ok + col.shed + col.genShed + col.errs
	elapsed := time.Duration(col.last.Load())
	if elapsed <= 0 {
		elapsed = p.Duration
	}
	return NetResult{
		Name:              p.Name,
		Protocol:          p.Protocol,
		OfferedQPS:        p.OfferedQPS,
		QPS:               float64(col.ok) / elapsed.Seconds(),
		Requests:          total,
		Conns:             p.Conns,
		Batch:             p.Batch,
		Bursty:            p.Bursty,
		ZipfTheta:         p.ZipfTheta,
		P50Us:             float64(percentile(col.lats, 50)) / 1e3,
		P95Us:             float64(percentile(col.lats, 95)) / 1e3,
		P99Us:             float64(percentile(col.lats, 99)) / 1e3,
		P999Us:            float64(percentile(col.lats, 99.9)) / 1e3,
		ShedRate:          float64(col.shed) / float64(total),
		GeneratorShedRate: float64(col.genShed) / float64(total),
		ErrorRate:         float64(col.errs) / float64(total),
	}, nil
}

// arrivalSchedule lays out the point's intended send times: Poisson
// interarrivals at the offered frame rate; in bursty mode the process runs
// at double rate during the on-half of a 100ms square wave and is silent
// in the off-half, preserving the average.
func arrivalSchedule(p NetPoint, rng *rand.Rand) []time.Duration {
	const cycle, onFrac = 0.1, 0.5
	frameRate := p.OfferedQPS / float64(p.Batch)
	if p.Bursty {
		frameRate /= onFrac
	}
	end := p.Duration.Seconds()
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / frameRate
		if p.Bursty {
			if phase := math.Mod(t, cycle); phase >= cycle*onFrac {
				// Landed in the off window: carry over to the next on window.
				t += cycle - phase
			}
		}
		if t >= end {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}
