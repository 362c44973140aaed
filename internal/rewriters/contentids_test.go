package rewriters_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/eurosys26p57/chimera/internal/evalmatrix"
	"github.com/eurosys26p57/chimera/internal/rewriters"
)

// contentIDLines renders, for every parity input and every evaluation
// matrix configuration, the output image's ContentID and the Stats JSON,
// or the refusal text when the rewriter rejects the input.
func contentIDLines(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, img := range parityImages(t) {
		for _, c := range evalmatrix.Configs() {
			id := fmt.Sprintf("%s %s", img.Name, c.Name)
			res, err := rewriters.Rewrite(img, c.Method, rewriters.Options{Target: parityTarget, Resolve: c.Resolve})
			if err != nil {
				fmt.Fprintf(&out, "%s error %v\n", id, err)
				continue
			}
			cid, err := res.Image.ContentID()
			if err != nil {
				t.Fatal(err)
			}
			st, err := json.Marshal(res.Stats)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s %s %s\n", id, cid, st)
		}
	}
	return out.Bytes()
}

// TestContentIDsGolden is the rewrite pipeline's output-identity oracle:
// every parity input through every evaluation-matrix configuration must
// produce the image and stats recorded in testdata/contentids.golden.
func TestContentIDsGolden(t *testing.T) {
	path := filepath.Join("testdata", "contentids.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := contentIDLines(t); !bytes.Equal(got, want) {
		t.Errorf("rewrite outputs drifted from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
