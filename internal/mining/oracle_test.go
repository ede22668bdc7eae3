package mining

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/dataset"
	"repro/internal/intset"
)

// sides counts a tree's nodes on each side of the density cut-off: mined
// on word bitmaps (support at or above intset.IsDense's cut-off) or on
// sorted tid-lists.
type sides struct{ dense, sparse int }

// checkAgainstBrute compares every node of tree, mined from enc with opts,
// against the brute-force closed-pattern oracle: the pattern set, each
// node's support, its materialised tid-list, its class counts, the
// Tids/Diffset storage rule and the Diffset's content. Every stored list
// must be allocated at exact size (cap == len), so a kept node retains no
// slack.
func checkAgainstBrute(t *testing.T, label string, enc *dataset.Encoded, opts Options, tree *Tree) sides {
	t.Helper()
	n := enc.NumRecords
	want := make(map[string]BrutePattern)
	var rootItems []dataset.Item
	for _, p := range BruteForceClosed(enc, opts.MinSup) {
		if p.Support == n {
			// Only the root covers every record.
			rootItems = p.Items
			continue
		}
		if opts.MaxLen > 0 && len(p.Items) > opts.MaxLen {
			continue
		}
		want[patternKey(p.Items)] = p
	}

	root := tree.Root
	if tree.Nodes[0] != root || root.Parent != nil || root.Support != n || len(root.Tids) != n {
		t.Fatalf("%s: malformed root (support %d, %d tids)", label, root.Support, len(root.Tids))
	}
	if patternKey(root.Closure) != patternKey(rootItems) {
		t.Fatalf("%s: root closure %v, oracle %v", label, root.Closure, rootItems)
	}
	if len(tree.Nodes)-1 != len(want) {
		t.Fatalf("%s: miner found %d closed patterns, oracle %d", label, len(tree.Nodes)-1, len(want))
	}

	var s sides
	for i, nd := range tree.Nodes {
		if nd.Index != i {
			t.Fatalf("%s: node at %d has Index %d", label, i, nd.Index)
		}
		if intset.IsDense(n, nd.Support) {
			s.dense++
		} else {
			s.sparse++
		}
		for _, l := range [][]uint32{nd.Tids, nd.Diff} {
			if cap(l) != len(l) {
				t.Fatalf("%s node %d: stored list has len %d, cap %d", label, i, len(l), cap(l))
			}
		}
		tids := nd.MaterializeTids()
		if i == 0 {
			checkClassCounts(t, label, nd, CountClasses(tids, enc.Labels, enc.NumClasses))
			continue
		}
		p, ok := want[patternKey(nd.Closure)]
		if !ok {
			t.Fatalf("%s node %d: closure %v is not a closed frequent pattern", label, i, nd.Closure)
		}
		delete(want, patternKey(nd.Closure))
		if nd.Support != p.Support || !intset.Equal(tids, p.Tids) {
			t.Fatalf("%s node %d (%v): support %d tids %v, oracle %d %v", label, i, nd.Closure, nd.Support, tids, p.Support, p.Tids)
		}
		checkClassCounts(t, label, nd, CountClasses(p.Tids, enc.Labels, enc.NumClasses))

		par := nd.Parent
		if par == nil || par.Index >= i || nd.Depth != par.Depth+1 {
			t.Fatalf("%s node %d: bad parent link", label, i)
		}
		parTids := par.MaterializeTids()
		if opts.StoreDiffsets && 2*nd.Support > par.Support {
			if nd.Tids != nil || !intset.Equal(nd.Diff, intset.Diff(parTids, p.Tids)) {
				t.Fatalf("%s node %d: Diffset %v, want parent minus child %v", label, i, nd.Diff, intset.Diff(parTids, p.Tids))
			}
		} else if nd.Diff != nil || nd.Tids == nil {
			t.Fatalf("%s node %d: stores a Diffset where the rule asks for Tids", label, i)
		}
	}
	return s
}

func checkClassCounts(t *testing.T, label string, nd *Node, want []int32) {
	t.Helper()
	if len(nd.ClassCounts) != len(want) {
		t.Fatalf("%s node %d: %d class counts, want %d", label, nd.Index, len(nd.ClassCounts), len(want))
	}
	for c := range want {
		if nd.ClassCounts[c] != want[c] {
			t.Fatalf("%s node %d: class counts %v, want %v", label, nd.Index, nd.ClassCounts, want)
		}
	}
}

// decodeDataset turns fuzz bytes into a small categorical dataset and the
// options to mine it with. The header is b[0] attributes (1–4), b[1]
// values per attribute (1–4), b[2] classes (2–4), b[3] records (1–256),
// b[4] MinSup, b[5] flags (bit 0 StoreDiffsets, bits 1–2 MaxLen 0–3). The
// rest is a cell stream read cyclically, each pass shifted by its pass
// number: a cell byte picks a value or, one time in values+1, a missing
// cell; a record's last byte picks its class.
func decodeDataset(b []byte) (*dataset.Dataset, Options, bool) {
	if len(b) < 7 {
		return nil, Options{}, false
	}
	attrs, vals, classes := 1+int(b[0])%4, 1+int(b[1])%4, 2+int(b[2])%3
	n := 1 + int(b[3])
	opts := Options{
		MinSup:        1 + int(b[4])%(1+n/2),
		StoreDiffsets: b[5]&1 != 0,
		MaxLen:        int(b[5]>>1) % 4,
	}
	body := b[6:]
	s := &dataset.Schema{Class: dataset.Attribute{Name: "class"}}
	for a := 0; a < attrs; a++ {
		attr := dataset.Attribute{Name: fmt.Sprintf("A%d", a)}
		for v := 0; v < vals; v++ {
			attr.Values = append(attr.Values, fmt.Sprintf("v%d", v))
		}
		s.Attrs = append(s.Attrs, attr)
	}
	for c := 0; c < classes; c++ {
		s.Class.Values = append(s.Class.Values, fmt.Sprintf("c%d", c))
	}
	next := func(i int) int { return int(body[i%len(body)]) + i/len(body) }
	d := dataset.New(s, n)
	for r := 0; r < n; r++ {
		base := r * (attrs + 1)
		cells := make([]int32, attrs)
		for a := range cells {
			cells[a] = int32(next(base+a) % (vals + 1))
			if int(cells[a]) == vals {
				cells[a] = -1
			}
		}
		d.Append(cells, int32(next(base+attrs)%classes))
	}
	return d, opts, true
}

// FuzzMineClosed checks the miner against the brute-force oracle on
// byte-decoded datasets with missing cells, 2–4 classes, Diffsets on or
// off and a MaxLen cap. Datasets of 64 or more records put their upper
// nodes above the density cut-off and their lower nodes below it.
func FuzzMineClosed(f *testing.F) {
	f.Add([]byte{3, 1, 0, 199, 6, 1, 7, 42, 99, 3, 250, 17, 64, 5, 8, 130, 77})
	f.Add([]byte{2, 2, 1, 255, 20, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{1, 3, 2, 40, 2, 5, 0, 9, 4, 4, 1})
	f.Add([]byte{3, 0, 0, 120, 30, 3, 255, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, opts, ok := decodeDataset(b)
		if !ok {
			return
		}
		enc := dataset.Encode(d)
		for _, workers := range []int{1, 2} {
			opts.Workers = workers
			tree, err := MineClosed(enc, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstBrute(t, fmt.Sprintf("workers=%d", workers), enc, opts, tree)
		}
	})
}

// TestMineClosedOracleBothSides is the seeded property test over both node
// representations: random datasets of 64–400 records with missing cells
// and 2–4 classes, mined with Diffsets on and off and with and without a
// MaxLen cap, must match the brute-force oracle node for node. Some trees
// must hold nodes on both sides of the density cut-off, so the bitmap
// side, the tid-list side and the hand-over between them are all checked.
func TestMineClosedOracleBothSides(t *testing.T) {
	rng := rand.New(rand.NewPCG(1703, 17))
	mixed := 0
	for trial := 0; trial < 24; trial++ {
		n := 64 + rng.IntN(337)
		attrs := 3 + rng.IntN(3)
		vals := 2 + rng.IntN(2)
		classes := 2 + rng.IntN(3)
		d := randomDataset(rng, n, attrs, vals, classes)
		for _, row := range d.Cells {
			for a := range row {
				if rng.IntN(10) == 0 {
					row[a] = -1
				}
			}
		}
		enc := dataset.Encode(d)
		minSup := 1 + rng.IntN(n/8)
		for _, opts := range []Options{
			{MinSup: minSup, StoreDiffsets: true},
			{MinSup: minSup, StoreDiffsets: false, Workers: 1},
			{MinSup: minSup, StoreDiffsets: true, MaxLen: 2, Workers: 3},
		} {
			tree, err := MineClosed(enc, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("trial %d (n=%d minsup=%d diffsets=%v maxlen=%d)", trial, n, minSup, opts.StoreDiffsets, opts.MaxLen)
			if s := checkAgainstBrute(t, label, enc, opts, tree); s.dense > 1 && s.sparse > 0 {
				mixed++
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no tree held nodes on both sides of the density cut-off")
	}
}
