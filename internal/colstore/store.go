package colstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/dataset"
)

// ManifestName is the manifest file inside a store directory.
const ManifestName = "MANIFEST.json"

// manifestFormat is the manifest wire-format version; readers reject
// anything else.
const manifestFormat = 1

// manifestSeg is one segment entry: the file name, the records it
// covers, and the absolute record id of its first record. Entries must
// be contiguous and in increasing base order.
type manifestSeg struct {
	File    string `json:"file"`
	Records int    `json:"records"`
	Base    int    `json:"base"`
}

// manifest is the store's index file. Version starts at 1 and bumps on
// every append; the session layer folds it into its stage-cache keys, so
// a bump invalidates every cached tree/rule/permutation stage.
type manifest struct {
	Format     int           `json:"format"`
	Version    uint64        `json:"version"`
	NumRecords int           `json:"num_records"`
	AttrNames  []string      `json:"attr_names"`
	ClassName  string        `json:"class_name"`
	Segments   []manifestSeg `json:"segments"`
}

// validate checks structural invariants: known format, monotone
// contiguous segment ranges starting at record 0, and a record total
// matching the segment sum. Out-of-order or gapped manifests are errors,
// never reordered silently.
func (m *manifest) validate() error {
	if m.Format != manifestFormat {
		return fmt.Errorf("colstore: manifest format %d, want %d", m.Format, manifestFormat)
	}
	if m.Version == 0 {
		return fmt.Errorf("colstore: manifest version must be >= 1")
	}
	base := 0
	for i, s := range m.Segments {
		if s.Records <= 0 {
			return fmt.Errorf("colstore: segment %d covers %d records", i, s.Records)
		}
		if s.File != segFileName(i) {
			return fmt.Errorf("colstore: segment %d named %q, want %q", i, s.File, segFileName(i))
		}
		if s.Base != base {
			return fmt.Errorf("colstore: segment %d base %d out of order (want %d)", i, s.Base, base)
		}
		base += s.Records
	}
	if m.NumRecords != base {
		return fmt.Errorf("colstore: manifest records %d, segments sum to %d", m.NumRecords, base)
	}
	return nil
}

func segFileName(i int) string { return fmt.Sprintf("seg-%08d.arm", i) }

// Options configures ingestion into a store. The class is always the
// CSV's last column, matching the server upload and armine conventions.
type Options struct {
	// SegRecords caps records per segment (default
	// dataset.DefaultSegRecords).
	SegRecords int
}

// Store is an opened on-disk segmented dataset. All methods are safe for
// concurrent use; Append swaps in a fresh schema snapshot rather than
// mutating the one previous Snapshot calls returned.
type Store struct {
	dir string

	mu          sync.RWMutex
	man         manifest
	schema      *dataset.Schema
	classCounts []int
}

// Create ingests a CSV stream into a new store directory (created if
// missing; it must not already contain a manifest). The encode streams:
// peak memory is one segment regardless of input size.
func Create(dir string, r io.Reader, opts Options) (*Store, error) {
	return createFrom(dir, r, opts)
}

// FromDataset writes an in-memory dataset into a new store directory,
// preserving its schema verbatim (the full vocabulary travels in the
// first segment's delta, so values that never occur in any record — or
// occur out of first-appearance order — survive the round trip and the
// reloaded encoding is byte-identical to dataset.Encode(d)).
func FromDataset(dir string, d *dataset.Dataset, opts Options) (*Store, error) {
	if opts.SegRecords <= 0 {
		opts.SegRecords = dataset.DefaultSegRecords
	}
	if d.NumRecords() == 0 {
		return nil, fmt.Errorf("colstore: FromDataset: empty dataset")
	}
	if err := prepareDir(dir); err != nil {
		return nil, err
	}
	classes := d.Schema.NumClasses()
	var segs []manifestSeg
	for base := 0; base < d.NumRecords(); base += opts.SegRecords {
		n := d.NumRecords() - base
		if n > opts.SegRecords {
			n = opts.SegRecords
		}
		blk := blockFromDataset(d, base, n)
		if base == 0 {
			for a := range d.Schema.Attrs {
				blk.AttrDeltas[a] = d.Schema.Attrs[a].Values
			}
			blk.ClassDelta = d.Schema.Class.Values
		}
		if err := writeSegment(dir, len(segs), blk, classes); err != nil {
			return nil, err
		}
		segs = append(segs, manifestSeg{File: segFileName(len(segs)), Records: n, Base: base})
	}
	man := manifest{
		Format:     manifestFormat,
		Version:    1,
		NumRecords: d.NumRecords(),
		AttrNames:  attrNames(d.Schema),
		ClassName:  d.Schema.Class.Name,
		Segments:   segs,
	}
	if err := writeManifest(dir, &man); err != nil {
		return nil, err
	}
	return Open(dir)
}

// blockFromDataset packs records [base, base+n) of d into a segment
// block spanning the full (final) vocabulary.
func blockFromDataset(d *dataset.Dataset, base, n int) *dataset.SegmentBlock {
	nAttrs := len(d.Schema.Attrs)
	blk := &dataset.SegmentBlock{
		Base:       base,
		NumRecords: n,
		Labels:     d.Labels[base : base+n],
		Bitmaps:    make([][][]uint64, nAttrs),
		AttrDeltas: make([][]string, nAttrs),
	}
	w := (n + 63) / 64
	for a := range blk.Bitmaps {
		blk.Bitmaps[a] = make([][]uint64, len(d.Schema.Attrs[a].Values))
	}
	for ri := 0; ri < n; ri++ {
		for a, v := range d.Cells[base+ri] {
			if v < 0 {
				continue
			}
			if blk.Bitmaps[a][v] == nil {
				blk.Bitmaps[a][v] = make([]uint64, w)
			}
			blk.Bitmaps[a][v][ri>>6] |= 1 << (uint(ri) & 63)
		}
	}
	blk.ClassCounts = make([]int, d.Schema.NumClasses())
	for _, c := range blk.Labels {
		blk.ClassCounts[c]++
	}
	return blk
}

func createFrom(dir string, r io.Reader, opts Options) (*Store, error) {
	if err := prepareDir(dir); err != nil {
		return nil, err
	}
	var segs []manifestSeg
	emit := func(blk *dataset.SegmentBlock) error {
		if err := writeSegment(dir, len(segs), blk, len(blk.ClassCounts)); err != nil {
			return err
		}
		segs = append(segs, manifestSeg{File: segFileName(len(segs)), Records: blk.NumRecords, Base: blk.Base})
		return nil
	}
	schema, total, err := dataset.EncodeSegments(r, dataset.SegmentOptions{
		ClassCol:   -1,
		SegRecords: opts.SegRecords,
	}, emit)
	if err != nil {
		return nil, err
	}
	man := manifest{
		Format:     manifestFormat,
		Version:    1,
		NumRecords: total,
		AttrNames:  attrNames(schema),
		ClassName:  schema.Class.Name,
		Segments:   segs,
	}
	if err := writeManifest(dir, &man); err != nil {
		return nil, err
	}
	return Open(dir)
}

// prepareDir creates dir if needed and refuses to overwrite an existing
// store: segments are immutable, so replacing a dataset means removing
// its directory first.
func prepareDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return fmt.Errorf("colstore: %s already contains a store", dir)
	} else if !os.IsNotExist(err) {
		return err
	}
	return nil
}

func attrNames(s *dataset.Schema) []string {
	names := make([]string, len(s.Attrs))
	for a := range s.Attrs {
		names[a] = s.Attrs[a].Name
	}
	return names
}

func writeSegment(dir string, idx int, blk *dataset.SegmentBlock, classes int) error {
	data := encodeSegment(blk, classes, blk.ClassCounts)
	return writeFileAtomic(filepath.Join(dir, segFileName(idx)), data)
}

// writeManifest atomically replaces the manifest via temp file + rename,
// so a crash mid-append leaves the previous consistent manifest (new
// segment files without manifest entries are ignored by validate's exact
// naming and overwritten by the next append).
func writeManifest(dir string, m *manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, ManifestName), append(data, '\n'))
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Open loads a store directory: it parses and validates the manifest,
// then decodes every segment once to replay the vocabulary deltas into
// the schema and sum the footer class counts. Bitmaps are only decoded
// later, by Snapshot.
func Open(dir string) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s.man); err != nil {
		return nil, fmt.Errorf("colstore: parsing %s: %w", ManifestName, err)
	}
	// Decode reads one value; anything but whitespace after it is a
	// corrupt manifest, not a suffix to ignore.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("colstore: parsing %s: trailing data after the manifest object", ManifestName)
	}
	if err := s.man.validate(); err != nil {
		return nil, err
	}
	schema, counts, err := replaySegments(dir, &s.man, nil)
	if err != nil {
		return nil, err
	}
	s.schema, s.classCounts = schema, counts
	return s, nil
}

// replaySegments walks the manifest's segments in order, validating the
// vocabulary chain (each segment's per-attribute value count must equal
// the previous count plus its delta, likewise for classes) and returning
// the final schema and summed class counts. When fn is non-nil it runs
// on each decoded segment before its memory is released.
func replaySegments(dir string, man *manifest, fn func(int, *segment) error) (*dataset.Schema, []int, error) {
	schema := &dataset.Schema{Class: dataset.Attribute{Name: man.ClassName}}
	for _, name := range man.AttrNames {
		schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: name})
	}
	var counts []int
	for i, ms := range man.Segments {
		data, err := os.ReadFile(filepath.Join(dir, ms.File))
		if err != nil {
			return nil, nil, err
		}
		sg, err := decodeSegment(data)
		if err != nil {
			return nil, nil, fmt.Errorf("colstore: segment %s: %w", ms.File, err)
		}
		if sg.records != ms.Records {
			return nil, nil, fmt.Errorf("colstore: segment %s holds %d records, manifest says %d", ms.File, sg.records, ms.Records)
		}
		if len(sg.attrVals) != len(schema.Attrs) {
			return nil, nil, fmt.Errorf("colstore: segment %s has %d attributes, manifest has %d", ms.File, len(sg.attrVals), len(schema.Attrs))
		}
		for a := range schema.Attrs {
			if want := len(schema.Attrs[a].Values) + len(sg.attrDeltas[a]); sg.attrVals[a] != want {
				return nil, nil, fmt.Errorf("colstore: segment %s attr %d has %d values, chain expects %d",
					ms.File, a, sg.attrVals[a], want)
			}
			schema.Attrs[a].Values = append(schema.Attrs[a].Values, sg.attrDeltas[a]...)
		}
		if want := len(schema.Class.Values) + len(sg.classDelta); sg.classes != want {
			return nil, nil, fmt.Errorf("colstore: segment %s has %d classes, chain expects %d", ms.File, sg.classes, want)
		}
		schema.Class.Values = append(schema.Class.Values, sg.classDelta...)
		for len(counts) < sg.classes {
			counts = append(counts, 0)
		}
		for c, n := range sg.classCounts {
			counts[c] += int(n)
		}
		if fn != nil {
			if err := fn(i, sg); err != nil {
				return nil, nil, err
			}
		}
	}
	return schema, counts, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// NumRecords returns the store's total record count.
func (s *Store) NumRecords() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.man.NumRecords
}

// NumSegments returns the number of immutable segments.
func (s *Store) NumSegments() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.man.Segments)
}

// Version returns the store's monotone version, bumped by every Append.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.man.Version
}

// Schema returns the current schema snapshot. It is immutable: Append
// builds a new schema rather than growing this one.
func (s *Store) Schema() *dataset.Schema {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.schema
}

// ClassCounts returns the summed per-class record counts. The slice is
// shared; callers must not mutate it.
func (s *Store) ClassCounts() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.classCounts
}

// Snapshot rebuilds the vertical encoding from the segment files —
// concatenating each item's per-segment word runs in record order and
// summing footer class counts — and returns it with the version it
// corresponds to. The result is byte-identical to dataset.Encode over
// the equivalent in-memory dataset: segments are replayed in manifest
// order, so every tid-list is increasing, and the schema replay keeps
// vocabularies in original first-appearance order. Peak extra memory is
// one segment file beyond the returned encoding.
func (s *Store) Snapshot() (*dataset.Encoded, uint64, error) {
	s.mu.RLock()
	man := s.man
	schema := s.schema
	counts := append([]int(nil), s.classCounts...)
	s.mu.RUnlock()

	enc := dataset.NewEncoding(schema)
	e := &dataset.Encoded{
		Enc:         enc,
		NumRecords:  man.NumRecords,
		Tids:        make([][]uint32, enc.NumItems()),
		Labels:      make([]int32, 0, man.NumRecords),
		NumClasses:  schema.NumClasses(),
		ClassCounts: counts,
	}
	// First pass: per-item occurrence counts, so each tid-list is
	// allocated exactly once (mirroring Encode's two-pass shape).
	itemCounts := make([]int, enc.NumItems())
	_, _, err := replaySegments(s.dir, &man, func(i int, sg *segment) error {
		// Item ids are stable under the final encoding because value
		// indices within an attribute never change once assigned; a
		// segment just covers a prefix of each attribute's value range.
		counts := make([]int, sg.valOff[len(sg.valOff)-1]+sg.attrVals[len(sg.attrVals)-1])
		if len(sg.attrVals) == 0 {
			counts = nil
		}
		sg.itemCounts(counts)
		for a, nv := range sg.attrVals {
			for v := 0; v < nv; v++ {
				itemCounts[enc.ItemOf(a, int32(v))] += counts[sg.valOff[a]+v]
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	for i := range e.Tids {
		e.Tids[i] = make([]uint32, 0, itemCounts[i])
	}
	_, _, err = replaySegments(s.dir, &man, func(i int, sg *segment) error {
		base := uint32(man.Segments[i].Base)
		for a, nv := range sg.attrVals {
			for v := 0; v < nv; v++ {
				it := enc.ItemOf(a, int32(v))
				e.Tids[it] = sg.appendTids(a, v, base, e.Tids[it])
			}
		}
		e.Labels = append(e.Labels, sg.labels...)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return e, man.Version, nil
}

// Append ingests a CSV delta (same header layout as the original
// ingest) as new immutable segments, atomically rewrites the manifest
// with a bumped version, and swaps in the grown schema. Existing
// segment files are never touched. It returns the number of records
// added. Concurrent Snapshot callers keep the schema snapshot they
// already hold.
func (s *Store) Append(r io.Reader, opts Options) (int, error) {
	if opts.SegRecords <= 0 {
		opts.SegRecords = dataset.DefaultSegRecords
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	man := s.man // copy; segment slice is re-appended below
	man.Segments = append([]manifestSeg(nil), s.man.Segments...)
	var added []manifestSeg
	emit := func(blk *dataset.SegmentBlock) error {
		idx := len(man.Segments) + len(added)
		if err := writeSegment(s.dir, idx, blk, len(blk.ClassCounts)); err != nil {
			return err
		}
		added = append(added, manifestSeg{File: segFileName(idx), Records: blk.NumRecords, Base: blk.Base})
		return nil
	}
	schema, total, err := dataset.EncodeSegments(r, dataset.SegmentOptions{
		ClassCol:    -1,
		SegRecords:  opts.SegRecords,
		Base:        s.schema,
		BaseRecords: man.NumRecords,
	}, emit)
	if err != nil {
		return 0, err
	}
	man.Segments = append(man.Segments, added...)
	man.NumRecords += total
	man.Version++
	if err := writeManifest(s.dir, &man); err != nil {
		return 0, err
	}
	s.man = man
	s.schema = schema // fresh object from the resume reader, never aliased
	counts := make([]int, schema.NumClasses())
	copy(counts, s.classCounts)
	s.classCounts = counts
	for _, ms := range added {
		// Re-read the fresh segments' footers for their class counts
		// rather than trusting in-memory state, keeping Open and Append
		// agreeing on what disk says.
		data, err := os.ReadFile(filepath.Join(s.dir, ms.File))
		if err != nil {
			return 0, err
		}
		sg, err := decodeSegment(data)
		if err != nil {
			return 0, err
		}
		for c, n := range sg.classCounts {
			s.classCounts[c] += int(n)
		}
	}
	return total, nil
}

// Remove deletes a store directory and every file in it. It refuses
// paths that do not look like a store (no manifest), to avoid deleting
// arbitrary directories on a mis-typed path.
func Remove(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err != nil {
		return fmt.Errorf("colstore: %s is not a store: %w", dir, err)
	}
	return os.RemoveAll(dir)
}

// List returns the names of stores under root (directories containing a
// manifest), sorted.
func List(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(root, e.Name(), ManifestName)); err == nil {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
