package colstore

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// overflowSegment corrupts a valid segment's first footer class count
// and re-seals the CRC, so the decoder reaches the overflow check
// rather than failing the checksum.
func overflowSegment(seg []byte) []byte {
	out := append([]byte(nil), seg...)
	footerOff := binary.LittleEndian.Uint64(out[len(out)-trailerSize:])
	binary.LittleEndian.PutUint64(out[int(footerOff)+len(footerMagic):], 1<<40)
	body := len(out) - trailerSize
	binary.LittleEndian.PutUint32(out[body+8:], crc32.ChecksumIEEE(out[:body]))
	return out
}

// validSegmentBytes returns a well-formed two-attribute segment for the
// seed corpus.
func validSegmentBytes() []byte {
	blk := &dataset.SegmentBlock{
		Base:        0,
		NumRecords:  3,
		Labels:      []int32{0, 1, 0},
		Bitmaps:     [][][]uint64{{{0b101}, {0b010}}, {{0b011}, nil}},
		AttrDeltas:  [][]string{{"x", "y"}, {"p", "q"}},
		ClassDelta:  []string{"c0", "c1"},
		ClassCounts: []int{2, 1},
	}
	return encodeSegment(blk, 2, blk.ClassCounts)
}

func validManifestBytes() []byte {
	m := manifest{
		Format:     manifestFormat,
		Version:    1,
		NumRecords: 3,
		AttrNames:  []string{"a", "b"},
		ClassName:  "class",
		Segments:   []manifestSeg{{File: segFileName(0), Records: 3, Base: 0}},
	}
	data, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return data
}

// FuzzSegmentCodec drives the segment decoder and manifest validator
// with arbitrary bytes: corrupt input of any shape — truncated footers,
// overflowing class counts, out-of-order manifests — must produce an
// error, never a panic or a huge allocation, and accepted segments must
// expose self-consistent data.
func FuzzSegmentCodec(f *testing.F) {
	seg := validSegmentBytes()
	man := validManifestBytes()
	f.Add(seg, man)
	// Truncations: mid-header, mid-bitmaps, mid-footer, mid-trailer.
	for _, cut := range []int{4, len(seg) / 3, len(seg) - trailerSize - 2, len(seg) - 3} {
		f.Add(seg[:cut], man)
	}
	// Class-count overflow with a valid CRC: reaches the count checks.
	f.Add(overflowSegment(seg), man)
	// Out-of-order manifest.
	f.Add(seg, []byte(strings.Replace(string(man), `"base":0`, `"base":7`, 1)))
	f.Add([]byte{}, []byte(`{"format":1,"version":1,"segments":[]}`))

	f.Fuzz(func(t *testing.T, segData, manData []byte) {
		if sg, err := decodeSegment(segData); err == nil {
			// Accepted segments must be safe to walk: the decoder
			// validated every section size, so the lazy bitmap reads
			// cannot step out of bounds.
			var tids []uint32
			counts := make([]int, 0)
			for a, nv := range sg.attrVals {
				for v := 0; v < nv; v++ {
					tids = sg.appendTids(a, v, 0, tids[:0])
					for _, r := range tids {
						if int(r) >= sg.records {
							t.Fatalf("tid %d out of range [0,%d)", r, sg.records)
						}
					}
				}
				counts = append(counts, 0)
			}
			if len(sg.labels) != sg.records {
				t.Fatalf("%d labels for %d records", len(sg.labels), sg.records)
			}
		}
		var m manifest
		if err := json.Unmarshal(manData, &m); err == nil {
			if err := m.validate(); err == nil {
				// A valid manifest's segment ranges tile [0, NumRecords).
				total := 0
				for _, s := range m.Segments {
					if s.Base != total {
						t.Fatalf("validate accepted non-contiguous segments")
					}
					total += s.Records
				}
				if total != m.NumRecords {
					t.Fatalf("validate accepted mismatched record total")
				}
			}
		}
	})
}

// FuzzManifest writes arbitrary bytes as MANIFEST.json over a valid
// store's segment files. Open must never panic, and any manifest it
// accepts must be exactly one JSON object (no trailing data) that
// passes validate. Inputs run one at a time per process, so they share
// one store directory.
func FuzzManifest(f *testing.F) {
	dir := filepath.Join(f.TempDir(), "store")
	if _, err := Create(dir, strings.NewReader(randCSV(9, 40, 2)), Options{SegRecords: 16}); err != nil {
		f.Fatal(err)
	}
	manPath := filepath.Join(dir, ManifestName)
	orig, err := os.ReadFile(manPath)
	if err != nil {
		f.Fatal(err)
	}
	man := string(orig)
	f.Add([]byte(man))
	f.Add([]byte(man + `{"garbage": 1} trailing`))
	f.Add([]byte(man + "}"))
	f.Add([]byte(man[:len(man)/2]))
	f.Add([]byte(strings.Replace(man, `"num_records": 40`, `"num_records": 32`, 1)))
	f.Add([]byte("null"))

	f.Fuzz(func(t *testing.T, manData []byte) {
		if err := os.WriteFile(manPath, manData, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			return
		}
		if err := st.man.validate(); err != nil {
			t.Fatalf("Open accepted a manifest that fails validate: %v", err)
		}
		var whole manifest
		if err := json.Unmarshal(manData, &whole); err != nil {
			t.Fatalf("Open accepted a manifest that is not one JSON value: %v", err)
		}
	})
}

// decodeErr returns the decode error text ("" on success).
func decodeErr(data []byte) string {
	if _, err := decodeSegment(data); err != nil {
		return err.Error()
	}
	return ""
}

// TestFuzzSeedsBehave pins the seed corpus semantics: the valid seeds
// decode, and each corrupt variant is rejected with an error (the fuzz
// harness itself only checks for panics).
func TestFuzzSeedsBehave(t *testing.T) {
	seg := validSegmentBytes()
	if _, err := decodeSegment(seg); err != nil {
		t.Fatalf("valid segment rejected: %v", err)
	}
	for _, cut := range []int{0, 4, len(seg) / 3, len(seg) - trailerSize - 2, len(seg) - 3} {
		if _, err := decodeSegment(seg[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := decodeSegment(overflowSegment(seg)); err == nil {
		t.Fatal("class-count overflow accepted")
	}
	if !strings.Contains(decodeErr(overflowSegment(seg)), "exceeds") {
		t.Fatal("overflow not rejected by the count check")
	}

	var m manifest
	if err := json.Unmarshal(validManifestBytes(), &m); err != nil {
		t.Fatal(err)
	}
	if err := m.validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	m.Segments[0].Base = 7
	if err := m.validate(); err == nil {
		t.Fatal("out-of-order manifest accepted")
	}
}
