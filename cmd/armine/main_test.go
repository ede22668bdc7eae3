package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// writeTempCSV drops a small mineable CSV and returns its path.
func writeTempCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "d.csv")
	var b strings.Builder
	b.WriteString("color,class\n")
	for i := 0; i < 30; i++ {
		b.WriteString("red,yes\n")
	}
	for i := 0; i < 30; i++ {
		b.WriteString("blue,no\n")
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRealMainDispatch covers the subcommand surface: "help" succeeds;
// unknown commands, flags before the subcommand, a missing subcommand and
// unknown flags fail with exit 1 and a message on stderr only.
func TestRealMainDispatch(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"help"}, &stdout, &stderr); code != 0 {
		t.Errorf("help exit = %d, stderr %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "serve") {
		t.Errorf("help output missing subcommands: %q", stdout.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := realMain([]string{"bogus"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown command exit = %d", code)
	}
	if !strings.Contains(stderr.String(), "unknown command") || stdout.Len() != 0 {
		t.Errorf("unknown command: stderr=%q stdout=%q", stderr.String(), stdout.String())
	}
	for _, args := range [][]string{{"bench", "-quick"}, {"-uci", "german", "-minsup", "60"}, nil} {
		stdout.Reset()
		stderr.Reset()
		if code := realMain(args, &stdout, &stderr); code != 1 {
			t.Errorf("%q: exit = %d, want 1", args, code)
		}
		if !strings.Contains(stderr.String(), "serve") || !strings.Contains(stderr.String(), "convert") || stdout.Len() != 0 {
			t.Errorf("%q: stderr=%q stdout=%q, want the subcommands named on stderr", args, stderr.String(), stdout.String())
		}
	}
	stdout.Reset()
	stderr.Reset()
	if code := realMain([]string{"mine", "-bogusflag"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown flag exit = %d", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown flag leaked to stdout: %q", stdout.String())
	}
}

// TestMineJSONErrorsToStderr is the -json error-handling regression:
// failures must reach stderr with a non-zero exit and NEVER the JSON
// stream on stdout.
func TestMineJSONErrorsToStderr(t *testing.T) {
	cases := [][]string{
		{"mine", "-json"}, // no input selected
		{"mine", "-json", "-in", "/nonexistent/file.csv"},                                // unreadable input
		{"mine", "-json", "-uci", "german"},                                              // no -minsup / -minsup-frac
		{"mine", "-uci", "german", "-minsup", "60", "-json", "-methods", "direct,bogus"}, // bad method token
		{"mine", "-uci", "german", "-minsup", "60", "-json", "-control", "bogus"},        // bad control
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit = %d, want 1", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: error leaked into the JSON stream: %q", args, stdout.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("%v: no error on stderr", args)
		}
	}
}

// TestMineMethodsRejectedUpFront pins that a bad -methods token fails
// before any dataset work: the error names the token, and an empty token
// (trailing comma) is an error rather than a silent skip.
func TestMineMethodsRejectedUpFront(t *testing.T) {
	// The input file does not exist — if methods were validated after the
	// dataset load, the error would be about the file instead.
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"mine", "-in", "/nonexistent/file.csv", "-minsup", "5", "-methods", "direct,bogus"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(stderr.String(), "bogus") {
		t.Errorf("error does not name the bad token: %q", stderr.String())
	}
	if strings.Contains(stderr.String(), "no such file") {
		t.Errorf("dataset was loaded before method validation: %q", stderr.String())
	}
	stderr.Reset()
	if code := realMain([]string{"mine", "-in", "/nonexistent/file.csv", "-minsup", "5", "-methods", "direct,"}, &stdout, &stderr); code != 1 {
		t.Errorf("trailing comma exit = %d, want 1 (empty tokens must not be silently skipped)", code)
	}
	// A negative permutation budget fails before the load too, fixed or
	// adaptive, naming the flag rather than an engine internal.
	for _, args := range [][]string{
		{"-method", "permutation", "-perms", "-5"},
		{"-method", "permutation", "-adaptive", "-perms", "-5"},
	} {
		stderr.Reset()
		args = append([]string{"mine", "-in", "/nonexistent/file.csv", "-minsup", "5"}, args...)
		if code := realMain(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit = %d, want 1", args, code)
		}
		if msg := stderr.String(); !strings.Contains(msg, "-perms") || strings.Contains(msg, "no such file") {
			t.Errorf("%v: error %q does not reject -perms before the dataset load", args, msg)
		}
	}
}

// TestMineJSONOutput runs a real -json mine and checks stdout is exactly
// one parseable JSON array, with per-run wire fields populated.
func TestMineJSONOutput(t *testing.T) {
	path := writeTempCSV(t)
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"mine", "-in", path, "-minsup", "5", "-json", "-methods", "none,direct"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr %s", code, stderr.String())
	}
	var runs []repro.RunJSON
	if err := json.Unmarshal(stdout.Bytes(), &runs); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(runs) != 2 || runs[0].Method != "none" || runs[1].Method != "direct" {
		t.Fatalf("runs = %+v", runs)
	}
	if runs[0].NumRecords != 60 {
		t.Errorf("num_records = %d, want 60", runs[0].NumRecords)
	}
}

// TestServeFlagValidation covers serve's argument surface without binding
// a listener.
func TestServeFlagValidation(t *testing.T) {
	cases := [][]string{
		{"serve", "-bogus"},
		{"serve", "-preload", "malformed"},
		{"serve", "-preload", "name=/nonexistent/file.csv"},
		{"serve", "positional"},
		// A stray positional in mine would silently drop every flag after
		// it (flag parsing stops there) — reject instead.
		{"mine", "-uci", "german", "-minsup", "60", "stray", "-method", "permutation"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit = %d, want 1", args, code)
		}
	}
}

func TestSetMethod(t *testing.T) {
	cases := map[string]repro.Method{
		"none":        repro.MethodNone,
		"direct":      repro.MethodDirect,
		"Permutation": repro.MethodPermutation, // case-insensitive
		" holdout ":   repro.MethodHoldout,     // whitespace-tolerant (from -methods lists)
		"layered":     repro.MethodLayered,
	}
	for name, want := range cases {
		var cfg repro.Config
		if err := setMethod(&cfg, name); err != nil {
			t.Errorf("setMethod(%q): %v", name, err)
		} else if cfg.Method != want {
			t.Errorf("setMethod(%q) = %v, want %v", name, cfg.Method, want)
		}
	}
	var cfg repro.Config
	if err := setMethod(&cfg, "bogus"); err == nil {
		t.Error("unknown method accepted")
	}
	if err := setMethod(&cfg, "holdout"); err != nil || !cfg.HoldoutRandom {
		t.Error("holdout should select the random split")
	}
}

func TestLoadDatasetSelection(t *testing.T) {
	if _, err := loadDataset("", "", 1); err == nil {
		t.Error("neither -in nor -uci should fail")
	}
	if _, err := loadDataset("x.csv", "german", 1); err == nil {
		t.Error("both -in and -uci should fail")
	}
	if _, err := loadDataset("", "german", 1); err != nil {
		t.Errorf("-uci german failed: %v", err)
	}
	if _, err := loadDataset("/nonexistent/file.csv", "", 1); err == nil {
		t.Error("missing file should fail")
	}
	// A real CSV file loads.
	dir := t.TempDir()
	path := filepath.Join(dir, "d.csv")
	if err := os.WriteFile(path, []byte("a,class\nx,y\nz,w\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := loadDataset(path, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRecords() != 2 {
		t.Errorf("records = %d", d.NumRecords())
	}
}
