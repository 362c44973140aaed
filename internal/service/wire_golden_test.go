package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// TestRewriteWireGolden pins the bytes a rewrite leaves outside the
// process: the /rewrite response's stats object and the store entry's
// meta sidecar, for every method with the resolver off and on, over a
// jump-table image (resolver work) and a SPEC-shaped one (translation
// work). Stored entries and peer frames carry both, so any difference here
// is a wire format change that older entries and older peers would misread.
func TestRewriteWireGolden(t *testing.T) {
	dispatch, err := workload.BuildDispatch(workload.DispatchParams{
		Name: "wire-golden", Arms: 4, VecArms: 2, Rounds: 8,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()

	var got bytes.Buffer
	for _, img := range []*obj.Image{dispatch, testImages(t, 1)[0]} {
		for _, method := range rewriters.Methods() {
			for _, resolve := range []bool{false, true} {
				body, err := json.Marshal(rewriteHTTPRequest{
					Method: method, Target: "rv64gc", Resolve: resolve, Image: wire(t, img),
				})
				if err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rewrite", bytes.NewReader(body)))
				id := fmt.Sprintf("%s %s resolve=%t", img.Name, method, resolve)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: HTTP %d: %s", id, rec.Code, rec.Body)
				}
				var resp struct {
					Key   string          `json:"key"`
					Stats json.RawMessage `json:"stats"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				e, _, ok := srv.st.Get(resp.Key)
				if !ok {
					t.Fatalf("%s: no store entry for %s", id, resp.Key)
				}
				fmt.Fprintf(&got, "%s stats %s\n", id, resp.Stats)
				fmt.Fprintf(&got, "%s meta %s\n", id, e.Meta)
			}
		}
	}

	path := filepath.Join("testdata", "rewrite_wire.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("rewrite wire format drifted from %s\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
