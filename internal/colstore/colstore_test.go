package colstore

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// randCSV builds a deterministic categorical CSV with missing values.
func randCSV(seed uint64, rows, attrs int) string {
	rng := rand.New(rand.NewPCG(seed, 0))
	var b strings.Builder
	for a := 0; a < attrs; a++ {
		fmt.Fprintf(&b, "a%d,", a)
	}
	b.WriteString("class\n")
	for r := 0; r < rows; r++ {
		for a := 0; a < attrs; a++ {
			switch rng.IntN(10) {
			case 0:
				b.WriteString("?")
			case 1:
				// empty = missing
			default:
				fmt.Fprintf(&b, "v%d", rng.IntN(2+a))
			}
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "c%d\n", rng.IntN(3))
	}
	return b.String()
}

// checkEncodedEqual fails the test unless the two vertical encodings are
// byte-identical (schema, tid-lists, labels, class counts).
func checkEncodedEqual(t *testing.T, got, want *dataset.Encoded) {
	t.Helper()
	if !reflect.DeepEqual(got.Enc.Schema, want.Enc.Schema) {
		t.Fatalf("schema mismatch:\n got %+v\nwant %+v", got.Enc.Schema, want.Enc.Schema)
	}
	if got.NumRecords != want.NumRecords || got.NumClasses != want.NumClasses {
		t.Fatalf("shape mismatch: got (%d,%d), want (%d,%d)",
			got.NumRecords, got.NumClasses, want.NumRecords, want.NumClasses)
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Fatal("labels mismatch")
	}
	if !reflect.DeepEqual(got.ClassCounts, want.ClassCounts) {
		t.Fatalf("class counts %v, want %v", got.ClassCounts, want.ClassCounts)
	}
	if len(got.Tids) != len(want.Tids) {
		t.Fatalf("%d items, want %d", len(got.Tids), len(want.Tids))
	}
	for i := range got.Tids {
		g, w := got.Tids[i], want.Tids[i]
		if len(g) == 0 && len(w) == 0 {
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("item %d tids %v, want %v", i, g, w)
		}
	}
}

func TestCreateSnapshotMatchesEncode(t *testing.T) {
	csvText := randCSV(1, 257, 5)
	want, err := dataset.ReadDataset(strings.NewReader(csvText), -1)
	if err != nil {
		t.Fatal(err)
	}
	wantEnc := dataset.Encode(want)
	for _, segRecords := range []int{1, 17, 64, 1000} {
		t.Run(fmt.Sprintf("seg=%d", segRecords), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			st, err := Create(dir, strings.NewReader(csvText), Options{SegRecords: segRecords})
			if err != nil {
				t.Fatal(err)
			}
			if st.NumRecords() != want.NumRecords() {
				t.Fatalf("records = %d, want %d", st.NumRecords(), want.NumRecords())
			}
			if v := st.Version(); v != 1 {
				t.Fatalf("fresh store version = %d, want 1", v)
			}
			got, ver, err := st.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if ver != 1 {
				t.Fatalf("snapshot version = %d, want 1", ver)
			}
			checkEncodedEqual(t, got, wantEnc)

			// Reopen from disk and check again: everything must survive
			// the round trip through the files alone.
			st2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			got2, _, err := st2.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			checkEncodedEqual(t, got2, wantEnc)
		})
	}
}

func TestAppendMatchesConcatenatedCSV(t *testing.T) {
	head := randCSV(2, 90, 4)
	delta1 := strings.SplitAfterN(randCSV(3, 40, 4), "\n", 2)[1]
	delta2 := strings.SplitAfterN(randCSV(4, 70, 4), "\n", 2)[1]
	header := strings.SplitAfterN(head, "\n", 2)[0]

	dir := filepath.Join(t.TempDir(), "store")
	st, err := Create(dir, strings.NewReader(head), Options{SegRecords: 32})
	if err != nil {
		t.Fatal(err)
	}
	schemaBefore := st.Schema()
	vocabBefore := append([]string(nil), schemaBefore.Attrs[0].Values...)

	n, err := st.Append(strings.NewReader(header+delta1), Options{SegRecords: 32})
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("append added %d records, want 40", n)
	}
	if v := st.Version(); v != 2 {
		t.Fatalf("version after append = %d, want 2", v)
	}
	if _, err := st.Append(strings.NewReader(header+delta2), Options{SegRecords: 32}); err != nil {
		t.Fatal(err)
	}
	if v := st.Version(); v != 3 {
		t.Fatalf("version after 2nd append = %d, want 3", v)
	}

	// The schema held before the appends must be untouched (snapshot
	// isolation for concurrent readers).
	if !reflect.DeepEqual(vocabBefore, schemaBefore.Attrs[0].Values) {
		t.Fatal("append mutated a previously returned schema")
	}

	whole, err := dataset.ReadDataset(strings.NewReader(head+delta1+delta2), -1)
	if err != nil {
		t.Fatal(err)
	}
	got, ver, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if ver != 3 {
		t.Fatalf("snapshot version = %d, want 3", ver)
	}
	checkEncodedEqual(t, got, dataset.Encode(whole))

	// And after reopening.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Version() != 3 {
		t.Fatalf("reopened version = %d, want 3", st2.Version())
	}
	got2, _, err := st2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	checkEncodedEqual(t, got2, dataset.Encode(whole))
}

func TestAppendRejectsMismatchedHeader(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Create(dir, strings.NewReader("a,b,class\nx,y,c\n"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(strings.NewReader("a,z,class\nx,y,c\n"), Options{}); err == nil {
		t.Fatal("append accepted a mismatched header")
	}
	// A failed append must leave the store at its previous version and
	// still consistent on disk.
	if st.Version() != 1 {
		t.Fatalf("version after failed append = %d, want 1", st.Version())
	}
	if _, err := Open(dir); err != nil {
		t.Fatalf("store inconsistent after failed append: %v", err)
	}
}

func TestFromDatasetPreservesSchemaVerbatim(t *testing.T) {
	// Build a dataset whose vocabulary order differs from first
	// appearance and includes a value no record carries: the store must
	// preserve the schema verbatim, or item ids (and therefore mining
	// output) would shift.
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "a", Values: []string{"unused", "x", "y"}},
			{Name: "b", Values: []string{"q", "p"}},
		},
		Class: dataset.Attribute{Name: "class", Values: []string{"c1", "c0"}},
	}
	d := dataset.New(schema, 0)
	rng := rand.New(rand.NewPCG(9, 0))
	for r := 0; r < 150; r++ {
		d.Append([]int32{int32(1 + rng.IntN(2)), int32(rng.IntN(2))}, int32(rng.IntN(2)))
	}
	dir := filepath.Join(t.TempDir(), "store")
	st, err := FromDataset(dir, d, Options{SegRecords: 41})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	checkEncodedEqual(t, got, dataset.Encode(d))
	if st.NumSegments() != 4 {
		t.Fatalf("segments = %d, want 4", st.NumSegments())
	}
}

func TestCreateRefusesExistingStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := Create(dir, strings.NewReader("a,class\nx,c\n"), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, strings.NewReader("a,class\nx,c\n"), Options{}); err == nil {
		t.Fatal("Create overwrote an existing store")
	}
}

func TestManifestValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := Create(dir, strings.NewReader(randCSV(5, 80, 3)), Options{SegRecords: 32}); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, ManifestName)
	orig, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(s string) string{
		"bad format":       func(s string) string { return strings.Replace(s, `"format": 1`, `"format": 99`, 1) },
		"zero version":     func(s string) string { return strings.Replace(s, `"version": 1`, `"version": 0`, 1) },
		"wrong total":      func(s string) string { return strings.Replace(s, `"num_records": 80`, `"num_records": 81`, 1) },
		"out of order":     func(s string) string { return strings.Replace(s, `"base": 32`, `"base": 33`, 1) },
		"unknown field":    func(s string) string { return strings.Replace(s, `"format": 1`, `"format": 1, "extra": true`, 1) },
		"wrong seg name":   func(s string) string { return strings.Replace(s, "seg-00000001.arm", "seg-00000009.arm", 1) },
		"negative records": func(s string) string { return strings.Replace(s, `"records": 32`, `"records": -32`, 1) },
		"trailing data":    func(s string) string { return s + `{"garbage": 1} trailing` },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			mutated := mutate(string(orig))
			if mutated == string(orig) {
				t.Fatal("mutation had no effect; fixture drifted")
			}
			if err := os.WriteFile(manPath, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir); err == nil {
				t.Fatalf("Open accepted manifest with %s", name)
			}
		})
	}
	if err := os.WriteFile(manPath, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatalf("restored manifest no longer opens: %v", err)
	}
}

func TestSegmentCorruptionDetected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := Create(dir, strings.NewReader(randCSV(6, 100, 3)), Options{SegRecords: 64}); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, segFileName(0))
	orig, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("bit flip", func(t *testing.T) {
		bad := append([]byte(nil), orig...)
		bad[len(bad)/2] ^= 0x40
		if err := os.WriteFile(segPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Fatal("Open accepted a corrupted segment")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if err := os.WriteFile(segPath, orig[:len(orig)/3], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Fatal("Open accepted a truncated segment")
		}
	})
	t.Run("missing", func(t *testing.T) {
		if err := os.Remove(segPath); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Fatal("Open accepted a store with a missing segment")
		}
	})
}

func TestRemoveAndList(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "not-a-store"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"beta", "alpha"} {
		if _, err := Create(filepath.Join(root, name), strings.NewReader("a,class\nx,c\n"), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	names, err := List(root)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"alpha", "beta"}) {
		t.Fatalf("List = %v", names)
	}
	if err := Remove(filepath.Join(root, "not-a-store")); err == nil {
		t.Fatal("Remove deleted a non-store directory")
	}
	if err := Remove(filepath.Join(root, "alpha")); err != nil {
		t.Fatal(err)
	}
	if names, _ = List(root); !reflect.DeepEqual(names, []string{"beta"}) {
		t.Fatalf("List after Remove = %v", names)
	}
	if names, err = List(filepath.Join(root, "absent")); err != nil || names != nil {
		t.Fatalf("List on absent root = %v, %v", names, err)
	}
}

func TestEmptyCSVStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Create(dir, strings.NewReader("a,class\n"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRecords() != 0 || st.NumSegments() != 0 {
		t.Fatalf("empty store has %d records, %d segments", st.NumRecords(), st.NumSegments())
	}
	e, _, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if e.NumRecords != 0 || len(e.Labels) != 0 {
		t.Fatal("empty snapshot not empty")
	}
	// Appending to an empty store must still work.
	if _, err := st.Append(strings.NewReader("a,class\nx,c\n"), Options{}); err != nil {
		t.Fatal(err)
	}
	if st.NumRecords() != 1 {
		t.Fatalf("records after append = %d", st.NumRecords())
	}
}
