package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"hmtx/internal/prof"
)

// goldenFig8 holds the SHA-256 digests of the five documents that
//
//	experiments -only fig8 -scale 1 -parallel 1 -json BENCH.json -prof PROF.json \
//	    -series SERIES.json -conflicts CONF.json -hist HIST.json
//
// wrote before cache storage became sparse (DESIGN.md §11). The CI cmp steps
// compare one build with itself (serial vs parallel, full vs resumed); these
// digests pin the bytes to an earlier build, so a change that alters model
// output cannot pass by agreeing with itself. A change that is meant to
// alter output must say so and update them.
var goldenFig8 = map[string]string{
	"bench":     "2ba00531aed61a00b54cf70b7280a07f1df0fc71fab8f3ebb1f124bd7857cc85",
	"prof":      "0b3a838891a502b5f19b3c68ffd947373afb14222ef329abbf2fcc369b41a9dc",
	"series":    "299390154543d6745fc9dc0bd7e0956df784c0f6769a28c9d776ef57905c8f8b",
	"conflicts": "21f3795e6dec5e5f76271e121d03875c13581cd70068b39785517cc5c85ccff8",
	"hist":      "c601a4f7c4dbafc233eb9d0a1b77a79188b442e04bf2763e226c99fe9ee3b15c",
}

// TestFig8DocumentsPinned regenerates the fig8 documents with every
// instrument attached, exactly as cmd/experiments writes them, and checks
// each against its pinned digest.
func TestFig8DocumentsPinned(t *testing.T) {
	cfg := Config{Scale: 1, Cores: 4, Parallelism: 1, Profile: true, Metrics: true, Domains: 1}
	results := RunAll(cfg, nil)
	docs := map[string]func(*bytes.Buffer) error{
		"bench":     func(b *bytes.Buffer) error { return WriteJSON(b, BuildDoc(cfg, results)) },
		"prof":      func(b *bytes.Buffer) error { return prof.WriteDoc(b, BuildProfDoc(cfg, results)) },
		"series":    func(b *bytes.Buffer) error { return WriteAnyJSON(b, BuildSeriesDoc(cfg, results)) },
		"conflicts": func(b *bytes.Buffer) error { return WriteAnyJSON(b, BuildConflictDoc(cfg, results)) },
		"hist":      func(b *bytes.Buffer) error { return WriteAnyJSON(b, BuildHistDoc(cfg, results)) },
	}
	for _, name := range []string{"bench", "prof", "series", "conflicts", "hist"} {
		var b bytes.Buffer
		if err := docs[name](&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(b.Bytes())
		if got := hex.EncodeToString(sum[:]); got != goldenFig8[name] {
			t.Errorf("%s document digest %s, pinned %s", name, got, goldenFig8[name])
		}
	}
}
