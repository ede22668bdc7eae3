package main

import (
	"flag"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// flagToken matches "-flagname" appearing after whitespace or a backtick
// in a documented armine invocation.
var flagToken = regexp.MustCompile("(?:^|[\\s`(])-([a-z][a-z0-9-]*)")

// armineWord matches armine as a complete command word, so lines about
// the armine-vet analyzer binary (a different program with go vet's flag
// surface) are not mistaken for CLI invocations.
var armineWord = regexp.MustCompile("(?:^|[\\s/`])armine(?:\\s|$)")

// armineInvocations extracts every documented armine command line from
// the fenced sh blocks of a markdown file, with backslash continuations
// joined.
func armineInvocations(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var (
		cmds    []string
		inFence bool
		cur     string
	)
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = strings.HasPrefix(trimmed, "```sh")
			continue
		}
		if !inFence {
			continue
		}
		if cur != "" {
			cur += " " + trimmed
		} else if armineWord.MatchString(trimmed) {
			cur = trimmed
		}
		if strings.HasSuffix(cur, "\\") {
			cur = strings.TrimSuffix(cur, "\\")
			continue
		}
		if cur != "" {
			cmds = append(cmds, cur)
			cur = ""
		}
	}
	return cmds
}

// TestReadmeFlagsExist fails when a README armine example uses a flag
// the CLI does not define — the drift that creeps in when flags are
// renamed without re-reading the docs. Subcommand flag sets come from
// the same constructors the real runs use. Every example must name its
// subcommand: armine has no bare-flag form.
func TestReadmeFlagsExist(t *testing.T) {
	sets := map[string]*flag.FlagSet{
		"mine":    newMineFlags(io.Discard).fs,
		"serve":   newServeFlags(io.Discard).fs,
		"convert": newConvertFlags(io.Discard).fs,
	}
	cmds := armineInvocations(t, "../../README.md")
	if len(cmds) < 4 {
		t.Fatalf("found only %d armine invocations in README.md; the extractor is broken:\n%v", len(cmds), cmds)
	}
	for _, cmd := range cmds {
		sub := ""
		for name := range sets {
			if strings.Contains(cmd, "armine "+name) {
				sub = name
				break
			}
		}
		if sub == "" {
			t.Errorf("README armine example names no subcommand\n  in: %s", cmd)
			continue
		}
		for _, m := range flagToken.FindAllStringSubmatch(cmd, -1) {
			name := m[1]
			if sets[sub].Lookup(name) == nil {
				t.Errorf("README documents %q but armine %s defines no -%s\n  in: %s",
					"-"+name, sub, name, cmd)
			}
		}
	}
}

// TestDocCommentFlagsExist applies the same check to the command's own
// doc comment examples (main.go's package comment is the manpage).
func TestDocCommentFlagsExist(t *testing.T) {
	data, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	src = src[:strings.Index(src, "package main")]
	sets := map[string]*flag.FlagSet{
		"mine":    newMineFlags(io.Discard).fs,
		"serve":   newServeFlags(io.Discard).fs,
		"convert": newConvertFlags(io.Discard).fs,
	}
	checked := 0
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimPrefix(strings.TrimSpace(line), "//")
		if !strings.Contains(line, "armine ") {
			continue
		}
		sub := ""
		for name := range sets {
			if strings.Contains(line, "armine "+name) {
				sub = name
				break
			}
		}
		if sub == "" {
			if strings.Contains(line, "armine -") {
				t.Errorf("doc comment example names no subcommand\n  in: %s", line)
			}
			continue
		}
		for _, m := range flagToken.FindAllStringSubmatch(line, -1) {
			if m[1] == "h" {
				continue // -h is flag's built-in help
			}
			checked++
			if sets[sub].Lookup(m[1]) == nil {
				t.Errorf("doc comment documents -%s but armine %s does not define it\n  in: %s", m[1], sub, line)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("checked only %d doc-comment flags; the extractor is broken", checked)
	}
}
