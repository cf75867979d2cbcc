package main

import (
	"context"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hdam"
)

const (
	testDim  = 2048
	testSeed = 11
)

// learnedSnapshot folds a few generated sentences per language through a
// learner with k centroids per class and returns the published snapshot's
// path plus one held-out sentence per language.
func learnedSnapshot(t *testing.T, k int, langs []*hdam.Language) (string, map[string]string) {
	t.Helper()
	lr, err := hdam.NewLearner(nil, hdam.LearnConfig{
		Dim: testDim, NGram: 3, Seed: testSeed, Centroids: k, Dir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Close()
	rng := rand.New(rand.NewPCG(testSeed, 1))
	held := map[string]string{}
	for _, l := range langs {
		for i := 0; i < 12; i++ {
			if err := lr.Ingest(context.Background(), l.Name, l.GenerateSentence(200, rng)); err != nil {
				t.Fatal(err)
			}
		}
		held[l.Name] = l.GenerateSentence(200, rng)
	}
	rep, err := lr.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	return rep.Path, held
}

// trainedSnapshot writes a single-centroid snapshot of a freshly trained
// language pipeline into dir.
func trainedSnapshot(t *testing.T, dir, name string, seed uint64, chars int) {
	t.Helper()
	p := hdam.DefaultLanguageParams()
	p.Dim, p.Seed, p.TrainChars, p.TestPerLang = testDim, seed, chars, 1
	tr, err := hdam.TrainLanguages(hdam.Languages()[:4], p)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := hdam.CaptureSnapshot(tr.Memory, hdam.SnapshotConfig{Dim: p.Dim, NGram: p.NGram, Seed: p.Seed},
		hdam.SnapshotProvenance{Trainer: "test", CreatedAt: time.Now().UTC()})
	if err != nil {
		t.Fatal(err)
	}
	if err := hdam.SaveSnapshot(filepath.Join(dir, name), snap); err != nil {
		t.Fatal(err)
	}
}

// A snapshot written by a multi-centroid learner stores rows labeled
// "<class>#<j>". Loading it — from a file or as the start-up model of a
// watched directory — must serve the class labels, not the raw row labels.
func TestMultiCentroidSnapshotServesClassLabels(t *testing.T) {
	langs := hdam.Languages()[:3]
	path, held := learnedSnapshot(t, 2, langs)

	tr, s, k, err := model(path, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Fatalf("centroids = %d, want 2", k)
	}

	dir := filepath.Dir(path)
	b := &backend{}
	reg, err := newRegistry(dir, b)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if ok, err := reg.Check(); err != nil || !ok {
		t.Fatalf("registry start-up load: swapped=%v err=%v", ok, err)
	}

	for name, pipe := range map[string]struct {
		tr *hdam.Trained
		s  hdam.Searcher
	}{"file": {tr, s}, "dir": {b.tr, b.s}} {
		eng, err := hdam.NewEngine(pipe.tr, pipe.s, hdam.ServeConfig{Workers: 1, MaxBatch: 4, Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range langs {
			r, err := eng.Submit(context.Background(), held[l.Name])
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(r.Label, "#") || r.Label != l.Name {
				t.Errorf("%s load: %s sentence answered %q, want %q", name, l.Name, r.Label, l.Name)
			}
		}
		eng.Close()
	}
}

// A fleet partitions one row per class and keeps its start-up encoders, so
// its registry swap must refuse a multi-centroid snapshot and a snapshot
// with another seed — each remembered as bad — and still roll a compatible
// one through every replica.
func TestFleetRegistryRefusesIncompatibleSnapshots(t *testing.T) {
	path, _ := learnedSnapshot(t, 2, hdam.Languages()[:4])
	dir := t.TempDir()
	b := &backend{fleet: true}
	reg, err := newRegistry(dir, b)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	if err := os.Link(path, filepath.Join(dir, "0-centroids.hds")); err != nil {
		t.Fatal(err)
	}
	if ok, err := reg.Check(); err != nil || ok {
		t.Fatalf("fleet accepted a multi-centroid snapshot: swapped=%v err=%v", ok, err)
	}
	if st := reg.Stats(); st.SwapFails != 1 || b.tr != nil {
		t.Fatalf("multi-centroid refusal not recorded: %+v (start-up model %v)", st, b.tr != nil)
	}

	trainedSnapshot(t, dir, "1-base.hds", testSeed, 2000)
	if ok, err := reg.Check(); err != nil || !ok {
		t.Fatalf("fleet start-up load: swapped=%v err=%v", ok, err)
	}
	b.fl, err = hdam.NewFleet(b.tr, hdam.FleetConfig{Replicas: 2, Scheme: hdam.FleetByClasses, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer b.fl.Close()

	trainedSnapshot(t, dir, "2-other-seed.hds", testSeed+1, 2000)
	if ok, err := reg.Check(); err != nil || ok {
		t.Fatalf("fleet accepted a snapshot with another seed: swapped=%v err=%v", ok, err)
	}
	if st := reg.Stats(); st.SwapFails != 2 || b.fl.Gen() != 1 {
		t.Fatalf("seed refusal not recorded: %+v, fleet gen %d", st, b.fl.Gen())
	}

	trainedSnapshot(t, dir, "3-more-text.hds", testSeed, 3000)
	if ok, err := reg.Check(); err != nil || !ok {
		t.Fatalf("fleet refused a compatible snapshot: swapped=%v err=%v", ok, err)
	}
	if b.fl.Gen() != 2 {
		t.Fatalf("fleet gen %d after a compatible swap, want 2", b.fl.Gen())
	}
}
