package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchio"
)

func TestBenchWritesReportAndTable(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_test.json")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"bench", "-quick", "-opts", "none,diffsets", "-workers", "1",
		"-perms", "3", "-minsup", "100", "-rev", "test", "-out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("bench exited %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"dataset", "diffsets", "vs-none", "# wrote"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("table missing %q:\n%s", want, stdout.String())
		}
	}
	rep, err := benchio.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rev != "test" || len(rep.Entries) != 2 {
		t.Fatalf("report = rev %q, %d entries; want test, 2", rep.Rev, len(rep.Entries))
	}
	for _, e := range rep.Entries {
		if e.NsPerOp <= 0 || e.SpeedupVsNone <= 0 {
			t.Errorf("entry not measured: %+v", e)
		}
	}
}

func TestBenchBaselineGate(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_a.json")
	run := func(args ...string) (int, string, string) {
		var stdout, stderr bytes.Buffer
		code := realMain(append([]string{
			"bench", "-quick", "-opts", "none,diffsets", "-workers", "1",
			"-perms", "3", "-minsup", "100", "-rev", "a",
		}, args...), &stdout, &stderr)
		return code, stdout.String(), stderr.String()
	}
	if code, _, stderr := run("-out", out); code != 0 {
		t.Fatalf("first run exited %d: %s", code, stderr)
	}

	// Same environment: the gate compares and passes. Tolerance 0.99
	// accepts any healthy ratio — micro-runs of single-digit perms are
	// far too noisy to assert 20% timing stability in a unit test; the
	// regression-detection arithmetic itself is pinned deterministically
	// below and in benchio's Compare tests.
	out2 := filepath.Join(dir, "BENCH_b.json")
	code, stdout, stderr := run("-out", out2, "-baseline", out, "-tolerance", "0.99")
	if code != 0 {
		t.Fatalf("gate against own baseline exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "no regressions") {
		t.Errorf("expected gate confirmation, got:\n%s", stdout)
	}

	base, err := benchio.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	// A baseline whose speedups are unreachably high must fail the gate
	// (deterministic: no real run can be within 20% of 1000x).
	doctored := *base
	doctored.Entries = append([]benchio.Entry(nil), base.Entries...)
	for i := range doctored.Entries {
		doctored.Entries[i].SpeedupVsNone *= 1000
	}
	impossible := filepath.Join(dir, "BENCH_impossible.json")
	if err := benchio.WriteFile(impossible, &doctored); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = run("-out", out2, "-baseline", impossible)
	if code != 1 {
		t.Fatalf("doctored baseline exited %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "regression") {
		t.Errorf("expected regression report on stderr, got:\n%s", stderr)
	}

	// A baseline from a different environment is skipped, not compared —
	// even one that would otherwise fail.
	doctored.CPUs++
	foreign := filepath.Join(dir, "BENCH_foreign.json")
	if err := benchio.WriteFile(foreign, &doctored); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr = run("-out", out2, "-baseline", foreign)
	if code != 0 {
		t.Fatalf("foreign baseline exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "skipping regression gate") {
		t.Errorf("expected environment skip, got:\n%s", stdout)
	}
}

func TestBenchRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"bench", "-opts", "bogus"},
		{"bench", "-workers", "x"},
		{"bench", "-perms", "-5"},
		{"bench", "-in", "a.csv", "-uci", "german"},
		{"bench", "stray"},
		{"bench", "-scalar"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v exited %d, want 1", args, code)
		}
	}
}
