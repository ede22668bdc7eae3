package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/dataset"
	"repro/internal/permute"
)

// storeFixture materialises a synthetic signal dataset as CSV text, an
// in-memory dataset read from it, and a segment store ingested from it
// (small segments, so every store test crosses many segment boundaries).
func storeFixture(t *testing.T, seed uint64, segRecords int) (csvText string, mem *dataset.Dataset, store *colstore.Store) {
	t.Helper()
	res := signalDataset(t, seed)
	var buf bytes.Buffer
	if err := res.Data.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	csvText = buf.String()
	mem, err := dataset.ReadDataset(strings.NewReader(csvText), -1)
	if err != nil {
		t.Fatal(err)
	}
	store, err = colstore.Create(filepath.Join(t.TempDir(), "store"), strings.NewReader(csvText),
		colstore.Options{SegRecords: segRecords})
	if err != nil {
		t.Fatal(err)
	}
	return csvText, mem, store
}

// TestStoreSessionMatchesInMemory is the tentpole byte-identity
// property: a session prepared from a segment store must produce
// bit-for-bit the results of a session over the equivalent in-memory
// dataset, at every optimisation level × worker count × shard fan-out.
func TestStoreSessionMatchesInMemory(t *testing.T) {
	_, mem, store := storeFixture(t, 31, 173)
	memSess := NewSession(mem)
	storeSess := NewSessionSource(store)

	// Non-permutation methods once each.
	for _, method := range []Method{MethodNone, MethodDirect, MethodLayered} {
		cfg := Config{MinSup: 100, Method: method, Control: ControlFWER, Permutations: 40, Seed: 7}
		want, err := memSess.Run(cfg)
		if err != nil {
			t.Fatalf("%v: in-memory: %v", method, err)
		}
		got, err := storeSess.Run(cfg)
		if err != nil {
			t.Fatalf("%v: store-backed: %v", method, err)
		}
		assertSameResult(t, fmt.Sprintf("method=%v", method), got, want)
	}

	// The permutation matrix.
	opts := []permute.OptLevel{permute.OptNone, permute.OptDynamicBuffer, permute.OptDiffsets, permute.OptStaticBuffer}
	for oi, opt := range opts {
		for _, workers := range []int{1, 3} {
			for _, shards := range []int{0, 3} {
				control := ControlFWER
				if (oi+workers+shards)%2 == 1 {
					control = ControlFDR
				}
				cfg := Config{
					MinSup:       100,
					Method:       MethodPermutation,
					Control:      control,
					Permutations: 60,
					Seed:         11,
					Opt:          opt,
					Workers:      workers,
					Shards:       shards,
				}
				label := fmt.Sprintf("opt=%v workers=%d shards=%d", opt, workers, shards)
				want, err := memSess.Run(cfg)
				if err != nil {
					t.Fatalf("%s: in-memory: %v", label, err)
				}
				got, err := storeSess.Run(cfg)
				if err != nil {
					t.Fatalf("%s: store-backed: %v", label, err)
				}
				assertSameResult(t, label, got, want)
			}
		}
	}

	// The whole sweep snapshots the store exactly once.
	if st := storeSess.Stats(); st.Encodes != 1 {
		t.Errorf("store session encodes = %d, want 1", st.Encodes)
	}

	// Holdout needs raw records, which a store-backed session does not
	// hold; it must refuse, not misbehave.
	if _, err := storeSess.Run(Config{MinSup: 100, Method: MethodHoldout}); err == nil {
		t.Error("store-backed holdout run did not fail")
	}
	if _, err := storeSess.RunBatch(t.Context(), []Config{{MinSup: 100, Method: MethodHoldout}}); err == nil {
		t.Error("store-backed holdout batch did not fail")
	}
}

// TestStoreSessionAppendInvalidates is the append half of the property:
// after appending a CSV delta, a re-mine of the store-backed session
// must equal a fresh in-memory mine of the concatenated CSV — the
// version bump flows through treeKey into every stage-cache key, so no
// stale stage can leak into the new results.
func TestStoreSessionAppendInvalidates(t *testing.T) {
	csvText, _, store := storeFixture(t, 32, 173)
	storeSess := NewSessionSource(store)

	cfg := Config{MinSup: 100, Method: MethodPermutation, Control: ControlFWER,
		Permutations: 60, Seed: 11, Opt: permute.OptStaticBuffer}
	before, err := storeSess.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Build a delta with the same header (and some new attribute values)
	// from a second synthetic dataset, then append it.
	res2 := signalDataset(t, 33)
	var buf bytes.Buffer
	if err := res2.Data.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	parts := strings.SplitAfterN(buf.String(), "\n", 2)
	header, deltaRows := parts[0], parts[1]
	if !strings.HasPrefix(csvText, header) {
		t.Fatalf("fixture drift: headers differ (%q)", header)
	}
	added, err := store.Append(strings.NewReader(header+deltaRows), colstore.Options{SegRecords: 173})
	if err != nil {
		t.Fatal(err)
	}
	if added != res2.Data.NumRecords() {
		t.Fatalf("append added %d records, want %d", added, res2.Data.NumRecords())
	}

	grown, err := dataset.ReadDataset(strings.NewReader(csvText+deltaRows), -1)
	if err != nil {
		t.Fatal(err)
	}
	if grown.NumRecords() != store.NumRecords() {
		t.Fatalf("store has %d records, concatenated CSV has %d", store.NumRecords(), grown.NumRecords())
	}
	freshSess := NewSession(grown)

	for _, shards := range []int{0, 3} {
		c := cfg
		c.Shards = shards
		want, err := freshSess.Run(c)
		if err != nil {
			t.Fatalf("shards=%d: fresh in-memory: %v", shards, err)
		}
		got, err := storeSess.Run(c)
		if err != nil {
			t.Fatalf("shards=%d: store-backed after append: %v", shards, err)
		}
		assertSameResult(t, fmt.Sprintf("after append, shards=%d", shards), got, want)
		if got.NumRecords != grown.NumRecords() {
			t.Fatalf("result still sized for the old dataset: %d records", got.NumRecords)
		}
	}

	// The grown result really is new work, not a cache hit keyed under
	// the old version.
	if before.NumRecords == store.NumRecords() {
		t.Fatal("fixture drift: append added no records")
	}
	st := storeSess.Stats()
	if st.Encodes != 2 {
		t.Errorf("encodes = %d, want 2 (one per store version)", st.Encodes)
	}
	if st.Mines != 2 {
		t.Errorf("mines = %d, want 2 (one per store version)", st.Mines)
	}
}
