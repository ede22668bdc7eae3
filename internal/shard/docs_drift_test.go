package shard

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Drift tests in the internal/analysis style: DESIGN.md §10 and the
// README's "Distributed mining" section must keep naming the pieces of
// the sharding surface, so renaming a flag, endpoint, or entry point
// without re-reading the docs fails the build.

func readDoc(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatalf("reading %s: %v", name, err)
	}
	return string(data)
}

func TestDesignDocumentsSharding(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	const heading = "## 10. Distributed Permutation Sharding"
	if !strings.Contains(design, heading) {
		t.Fatalf("DESIGN.md lost its §10 distributed-sharding section")
	}
	sec := design[strings.Index(design, heading):]
	for _, want := range []string{
		"byte-identical",
		"ShardSpan",
		"/v1/datasets/{name}/shard",
		"//armine:deterministic",
		"FuzzShardMerge",
		"-shard-peers",
		"retirement frontier",
		"AdaptiveResult",
	} {
		if !strings.Contains(sec, want) {
			t.Errorf("DESIGN.md §10 does not mention %s", want)
		}
	}
}

func TestReadmeDocumentsDistributedMining(t *testing.T) {
	readme := readDoc(t, "README.md")
	const heading = "## Distributed mining"
	if !strings.Contains(readme, heading) {
		t.Fatalf("README.md lost its \"Distributed mining\" section")
	}
	sec := readme[strings.Index(readme, heading):]
	for _, want := range []string{
		"byte-identical",
		"-shard-peers",
		"/v1/datasets/{name}/shard",
		"DESIGN.md §10",
	} {
		if !strings.Contains(sec, want) {
			t.Errorf("README \"Distributed mining\" section does not mention %s", want)
		}
	}
}
