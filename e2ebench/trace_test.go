package main

import (
	"context"
	"math/rand/v2"
	"testing"
	"time"

	"hdam/internal/assoc"
	"hdam/internal/core"
	"hdam/internal/lang"
	"hdam/internal/learn"
	"hdam/internal/netserve"
	"hdam/internal/serve"
)

func smallModel(t *testing.T) (*lang.Trained, []string) {
	t.Helper()
	langs := catalog()
	p := lang.DefaultParams()
	p.Dim, p.TrainChars, p.TestPerLang = 2048, 4000, 1
	tr, err := lang.Train(langs, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	texts := make([]string, 200)
	for i := range texts {
		texts[i] = langs[i%len(langs)].GenerateSentence(10+i%140, rng)
	}
	return tr, texts
}

func TestWrappedSearcherIdentical(t *testing.T) {
	tr, texts := smallModel(t)
	tc := newTracer(texts, 1024)
	tc.on.Store(true)
	bare := assoc.NewExact(tr.Memory)
	wrapped := wrapSearcher(bare, tc)
	if _, ok := wrapped.(core.RowSearcher); !ok {
		t.Fatal("wrapper dropped RowSearcher")
	}
	if _, ok := wrapped.(core.BufferedSearcher); !ok {
		t.Fatal("wrapper dropped BufferedSearcher")
	}
	if f := wrapped.(core.ForkableSearcher).Fork(0); f != nil {
		t.Fatal("wrapper of a non-forkable searcher forked")
	}
	var buf []int
	for _, text := range texts {
		q, _ := tr.Encoder.EncodeText(text, 1)
		want := bare.Search(q)
		if got := wrapped.Search(q); got != want {
			t.Fatalf("Search: %+v, bare %+v", got, want)
		}
		if got := wrapped.(core.BufferedSearcher).SearchBuf(q, &buf); got != want {
			t.Fatalf("SearchBuf: %+v, bare %+v", got, want)
		}
		wd := bare.ObservedDistances(nil, q)
		gd := wrapped.(core.RowSearcher).ObservedDistances(nil, q)
		for i := range wd {
			if wd[i] != gd[i] {
				t.Fatalf("ObservedDistances row %d: %d, bare %d", i, gd[i], wd[i])
			}
		}
	}
	if tc.searches.Load() == 0 {
		t.Fatal("wrapper recorded no searches")
	}
}

// TestWrappedBackendIdentical serves the same model bare and wrapped (both
// the searcher and the backend) and compares every wire answer.
func TestWrappedBackendIdentical(t *testing.T) {
	tr, texts := smallModel(t)
	tc := newTracer(texts, 4096)
	tc.on.Store(true)
	p := tr.Params
	cfg := serve.Config{MaxBatch: engineBatch, Queue: engineQueue, Policy: serve.Reject, Seed: p.Seed}
	serveOn := func(s core.Searcher, wrap bool) (*netserve.Server, *netserve.Client) {
		eng, err := serve.New(tr.Memory, s, learn.EncoderFactory(p.Dim, p.NGram, p.Seed), cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := netserve.EngineBackend(eng)
		if wrap {
			b = wrapBackend(b, tc)
		}
		srv, err := netserve.New(b, netserve.Config{BinaryAddr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		c, err := netserve.Dial(srv.BinaryAddr().String(), time.Second)
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		return srv, c
	}
	bareSrv, bareC := serveOn(assoc.NewExact(tr.Memory), false)
	defer bareSrv.Close()
	defer bareC.Close()
	wSrv, wC := serveOn(wrapSearcher(assoc.NewExact(tr.Memory), tc), true)
	defer wSrv.Close()
	defer wC.Close()
	for _, text := range texts {
		want, err := bareC.Ask([]string{text}, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wC.Ask([]string{text}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != want[0] {
			t.Fatalf("%q: wrapped %+v, bare %+v", text, got, want)
		}
	}
	if tc.backend.count() != uint64(len(texts)) {
		t.Fatalf("backend spans %d, want %d", tc.backend.count(), len(texts))
	}
}

func TestWrappedBackendForwardsLearn(t *testing.T) {
	tr, texts := smallModel(t)
	tc := newTracer(texts, 16)
	p := tr.Params
	eng, err := serve.New(tr.Memory, assoc.NewExact(tr.Memory), learn.EncoderFactory(p.Dim, p.NGram, p.Seed), serve.Config{Seed: p.Seed})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	lr, err := learn.New(tr.Memory, learn.Config{Dim: p.Dim, NGram: p.NGram, Seed: p.Seed, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Close()
	lb, ok := wrapBackend(netserve.LearnEngineBackend(eng, lr), tc).(netserve.LearnBackend)
	if !ok {
		t.Fatal("wrapper dropped LearnBackend")
	}
	if err := lb.Learn(context.Background(), "x", texts[0]); err != nil {
		t.Fatal(err)
	}
	if got := lb.LearnStats().Ingested; got != 1 {
		t.Fatalf("ingested %d, want 1", got)
	}
	if _, ok := wrapBackend(netserve.EngineBackend(eng), tc).(netserve.LearnBackend); ok {
		t.Fatal("wrapper of a plain engine claims LearnBackend")
	}
}
