package main

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"hdam/internal/learn"
	"hdam/internal/textgen"
)

// workload is one traffic mix served by one stack shape.
type workload struct {
	name  string
	fleet bool // serve through fleet.Fleet instead of one engine
	learn bool // connection 0 searches, connection 1 streams labelled examples
}

var workloads = map[string]workload{
	"sentence": {name: "sentence"},
	"fleet":    {name: "fleet", fleet: true},
	"learn":    {name: "learn", learn: true},
}

const (
	conns         = 2    // closed-loop connections: the reference box has two CPUs
	sentenceLen   = 150  // approximate query length in characters
	queryPool     = 2048 // distinct query texts per run
	learnBaseLang = 18   // languages the learn workload's base model knows
	exampleLen    = 100  // characters per learn example
	frameExamples = 16   // same-label examples per learn frame
	exampleFrames = 1024 // distinct learn frames, replayed in order
	heldOutPerNew = 50   // held-out sentences per language the base lacks
)

// inputs is everything a run sends, generated from the workload seed alone.
type inputs struct {
	queries []string // distinct texts; connection i sends those with index%conns == i
	order   []int    // seeded send order over queries
	frames  []frame  // learn workload: the labelled example stream
	heldOut []learn.Example
}

// frame is one learn frame: frameExamples examples sharing a label.
type frame struct {
	label string
	texts []string
}

func makeInputs(w workload, langs []*textgen.Language, seed uint64) (*inputs, error) {
	rng := rand.New(rand.NewPCG(seed, 0xe2e))
	queryLangs := langs
	if w.learn {
		queryLangs = langs[:learnBaseLang]
	}
	in := &inputs{}
	seen := make(map[string]bool, queryPool)
	for tries := 0; len(in.queries) < queryPool; tries++ {
		if tries > 100*queryPool {
			return nil, fmt.Errorf("could not draw %d distinct sentences", queryPool)
		}
		t := queryLangs[rng.IntN(len(queryLangs))].GenerateSentence(sentenceLen, rng)
		// Every query must encode to at least one n-gram, or the engine
		// refuses it; and the pool is duplicate-free so a text identifies
		// the one request using it.
		if len([]rune(t)) < 3 || seen[t] {
			continue
		}
		seen[t] = true
		in.queries = append(in.queries, t)
	}
	in.order = rng.Perm(len(in.queries))
	if !w.learn {
		return in, nil
	}
	for i := 0; i < exampleFrames; i++ {
		l := langs[rng.IntN(len(langs))]
		f := frame{label: l.Name, texts: make([]string, frameExamples)}
		for j := range f.texts {
			f.texts[j] = l.GenerateSentence(exampleLen, rng)
		}
		in.frames = append(in.frames, f)
	}
	for _, l := range langs[learnBaseLang:] {
		for i := 0; i < heldOutPerNew; i++ {
			in.heldOut = append(in.heldOut, learn.Example{Label: l.Name, Text: l.GenerateSentence(sentenceLen, rng)})
		}
	}
	return in, nil
}

// workloadNames lists the workloads in a stable order for messages.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
