package perf

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestTrajectoryMigrationAndAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")

	// Missing file: an empty trajectory, not an error.
	tr, err := LoadTrajectory(path)
	if err != nil || len(tr.Entries) != 0 {
		t.Fatalf("missing file: got %v entries, err %v", tr, err)
	}

	// A legacy single-Report file (the seed's format) migrates in place. It
	// carries the sections of the retired serve, fleet, learn and cold-start
	// harnesses, which this build's Report no longer has.
	retired := map[string]string{
		"serve":      `[{"name":"serve/serial-loop","qps":100}]`,
		"fleet":      `[{"name":"fleet/healthy-r4","qps":200,"degraded_rate":0}]`,
		"learn":      `[{"name":"learn/search-ingest-off","search_qps":300,"accuracy":[{"gen":0,"accuracy":0}]}]`,
		"cold_start": `[{"name":"coldstart/D10000-train50k","load_ms":1.5,"zero_copy":true}]`,
	}
	legacy := `{"go_version":"go1.x","num_cpu":1,"results":[{"name":"k","ns_per_op":1}]`
	for _, k := range []string{"serve", "fleet", "learn", "cold_start"} {
		legacy += `,"` + k + `":` + retired[k]
	}
	legacy += "}"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err = LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Entries) != 1 || decodeEntry(t, tr.Entries[0]).Results[0].Name != "k" {
		t.Fatalf("legacy migration: got %+v", tr)
	}

	// Appending keeps the seed baseline and adds the new entry after it;
	// a second append goes through the trajectory format.
	for _, v := range []string{"go1.y", "go1.z"} {
		rep := &Report{GoVersion: v, NumCPU: 1, Results: []Result{{Name: "k", NsPerOp: 2}}}
		if err := AppendReport(path, rep); err != nil {
			t.Fatal(err)
		}
	}
	tr, err = LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Entries) != 3 {
		t.Fatalf("after append: %d entries, want 3", len(tr.Entries))
	}
	for i, want := range []string{"go1.x", "go1.y", "go1.z"} {
		if got := decodeEntry(t, tr.Entries[i]).GoVersion; got != want {
			t.Fatalf("entry %d is %q, want %q", i, got, want)
		}
	}

	// The recorded entry keeps every retired section, value for value.
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(tr.Entries[0], &sections); err != nil {
		t.Fatal(err)
	}
	for k, want := range retired {
		var got bytes.Buffer
		if err := json.Compact(&got, sections[k]); err != nil || got.String() != want {
			t.Errorf("%s section after two appends: %s (err %v), want %s", k, got.String(), err, want)
		}
	}
	var serve []struct {
		QPS float64 `json:"qps"`
	}
	if err := json.Unmarshal(sections["serve"], &serve); err != nil || len(serve) != 1 || serve[0].QPS != 100 {
		t.Fatalf("serve section lost in round-trip: %s (err %v)", sections["serve"], err)
	}

	// Garbage is an error, not a silent reset of the history.
	if err := os.WriteFile(path, []byte(`{"nope": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrajectory(path); err == nil {
		t.Fatal("garbage file accepted")
	}
}

// decodeEntry decodes one raw trajectory entry into a Report.
func decodeEntry(t *testing.T, raw json.RawMessage) *Report {
	t.Helper()
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("entry %s: %v", raw, err)
	}
	return &r
}
