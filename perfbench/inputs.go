package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"

	"repro/internal/dataset"
	"repro/internal/synth"
	"repro/internal/uci"
)

// generatorSeed is the seed every generator runs with. The dataset's shape
// (schema cardinalities, planted rules, pattern counts) is fixed by it, so
// every --seed does the same amount of mining; --seed only reorders the
// records and seeds the permutations and holdout splits.
const generatorSeed = 1

// pins holds the SHA-256 of each generator's CSV output before the records
// are reordered. A change to a generator, to CSV writing or to the
// workload sizes changes these bytes, and the benchmark then refuses to
// run until the pin is updated here, so no input changes unnoticed.
var pins = map[string]string{
	"synth-20000x20": "db0ba8bb1a8d6215e9c652a1531f2733dd28c797f86a85d1689c5242e35e89ee",
	"uci-hypo":       "9cafae1d9d3bc95628ed868b567585b96dda452149629132e73b837217c38e1c",
	"uci-adult":      "de739819458f36d85510a5b25422b8ff5833e1f768afa616c0b7f00217fbfe92",
}

// inputs are the generated bytes one workload run feeds the program.
type inputs struct {
	base     []byte   // full CSV (header + records), the upload or the op input
	deltas   [][]byte // serve-store only: CSV deltas with a header each
	data     *dataset.Dataset
	embedded []synth.EmbeddedRule // perm-synth only: the planted rules
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// digest is one line pinning the run's input bytes next to its seed.
func (in *inputs) digest() string {
	h := sha256.New()
	for _, d := range in.deltas {
		h.Write(d)
	}
	return fmt.Sprintf("base_sha256=%s base_bytes=%d deltas=%d deltas_sha256=%s",
		sha(in.base), len(in.base), len(in.deltas), hex.EncodeToString(h.Sum(nil)))
}

func csvBytes(d *dataset.Dataset) ([]byte, error) {
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// generate builds a workload's inputs from its generator and --seed.
func generate(w string, seed uint64) (*inputs, error) {
	var (
		d        *dataset.Dataset
		pin      string
		embedded []synth.EmbeddedRule
		err      error
	)
	switch w {
	case "perm-synth":
		p := synth.PaperDefaults()
		p.N, p.Attrs, p.NumRules = 20000, 20, 5
		p.MinCvg, p.MaxCvg, p.MinConf, p.MaxConf = 400, 600, 0.6, 0.8
		p.Seed = generatorSeed
		var r *synth.Result
		if r, err = synth.Generate(p); err == nil {
			d, embedded, pin = r.Data, r.Rules, "synth-20000x20"
		}
	case "direct-dense":
		d, err = uci.Load("hypo", generatorSeed)
		pin = "uci-hypo"
	case "serve-store":
		d, err = uci.Load("adult", generatorSeed)
		pin = "uci-adult"
	default:
		return nil, fmt.Errorf("unknown workload %q", w)
	}
	if err != nil {
		return nil, err
	}
	canon, err := csvBytes(d)
	if err != nil {
		return nil, err
	}
	if got := sha(canon); got != pins[pin] {
		return nil, fmt.Errorf("generator output %s changed: sha256 %s, pinned %s", pin, got, pins[pin])
	}
	// Reorder the records by --seed. The planted rules are judged by
	// pattern, not by record id, so they stay valid.
	order := rand.New(rand.NewPCG(seed, 0x5eed)).Perm(d.NumRecords())
	d = d.Subset(order)
	in := &inputs{data: d, embedded: embedded}
	if w != "serve-store" {
		in.base, err = csvBytes(d)
		return in, err
	}
	idx := func(lo, hi int) []int {
		ix := make([]int, hi-lo)
		for i := range ix {
			ix[i] = lo + i
		}
		return ix
	}
	if in.base, err = csvBytes(d.Subset(idx(0, serveBaseRows))); err != nil {
		return nil, err
	}
	for lo := serveBaseRows; lo < d.NumRecords(); lo += serveDeltaRows {
		delta, err := csvBytes(d.Subset(idx(lo, min(lo+serveDeltaRows, d.NumRecords()))))
		if err != nil {
			return nil, err
		}
		in.deltas = append(in.deltas, delta)
	}
	return in, nil
}

// stateCSV returns the upload plus the first k deltas as one CSV: the
// rows a store holds after k appends.
func (in *inputs) stateCSV(k int) []byte {
	out := append([]byte(nil), in.base...)
	for _, d := range in.deltas[:k] {
		out = append(out, d[bytes.IndexByte(d, '\n')+1:]...)
	}
	return out
}

// sameInputs reports whether two generations produced identical bytes.
func sameInputs(a, b *inputs) bool {
	if !bytes.Equal(a.base, b.base) || len(a.deltas) != len(b.deltas) {
		return false
	}
	for i := range a.deltas {
		if !bytes.Equal(a.deltas[i], b.deltas[i]) {
			return false
		}
	}
	return true
}
