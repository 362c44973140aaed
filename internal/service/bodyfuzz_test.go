package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"github.com/eurosys26p57/chimera/internal/cluster"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/store"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// shutdownNoLeaks drains srv and fails t if any goroutine started since
// before (the count taken before the server was built) outlives it.
func shutdownNoLeaks(t *testing.T, srv *Server, before int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the server, %d after Shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peerStoreStatuses are the statuses PUT /peer/store/{id} documents for an
// offer: 204 (verified and stored) and 400 (unreadable, oversized, corrupt
// or mismatched body, or a key header that does not name the id).
var peerStoreStatuses = map[int]bool{
	http.StatusNoContent:  true,
	http.StatusBadRequest: true,
}

// FuzzPeerStoreBody drives arbitrary PUT /peer/store/{id} offers (the
// X-Chimera-Key header and the body, with the id derived from the header
// as an honest peer would) through the handler of a fresh server. It
// asserts no panic, only documented statuses, no goroutine left behind,
// and that every accepted offer left an entry that verifies on a local Get
// and is served back byte for byte by GET /peer/store/{id}.
func FuzzPeerStoreBody(f *testing.F) {
	valid := store.NewEntry("m=chbp;t=rv64gc;img=seed", []byte(`{"method":"chbp"}`), bytes.Repeat([]byte{0x13, 0, 0, 0}, 64))
	body := store.EncodeEntry(valid)
	f.Add(valid.Key, body)
	f.Add(valid.Key, body[:len(body)-1])
	f.Add("m=chbp;img=other", body)
	f.Add("", body)
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)-3] ^= 4
	f.Add(valid.Key, flipped)
	f.Add("k", store.EncodeEntry(&store.Entry{Key: "k"}))
	f.Add("k", []byte{})

	f.Fuzz(func(t *testing.T, key string, body []byte) {
		before := runtime.NumGoroutine()
		srv := New(Config{Workers: 1})
		h := srv.Handler()
		path := cluster.PeerPathPrefix + cluster.EntryID(key)
		req := httptest.NewRequest(http.MethodPut, path, bytes.NewReader(body))
		req.Header.Set(cluster.KeyHeader, key)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if !peerStoreStatuses[rec.Code] {
			t.Fatalf("undocumented status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if rec.Code == http.StatusNoContent {
			e, _, ok := srv.st.Get(key)
			if !ok {
				t.Fatal("accepted offer left no verifiable entry")
			}
			if !bytes.Equal(store.EncodeEntry(e), body) {
				t.Fatal("stored entry does not re-encode to the accepted body")
			}
			get := httptest.NewRequest(http.MethodGet, path, nil)
			get.Header.Set(cluster.KeyHeader, key)
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, get)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), body) {
				t.Fatalf("GET after an accepted offer: status %d, %d bytes (offered %d)", rec.Code, rec.Body.Len(), len(body))
			}
		}
		shutdownNoLeaks(t, srv, before)
	})
}

// rewriteBodyStatuses are the statuses /rewrite, /rewrite/batch (and each
// batch item) and /run document for a request body on a healthy server:
// 200, 400 for a malformed body or image, and for /run 422 (instruction
// budget exhausted) and 504 (deadline).
var rewriteBodyStatuses = map[string]map[int]bool{
	"/rewrite":       {http.StatusOK: true, http.StatusBadRequest: true},
	"/rewrite/batch": {http.StatusOK: true, http.StatusBadRequest: true},
	"/run": {http.StatusOK: true, http.StatusBadRequest: true,
		http.StatusUnprocessableEntity: true, http.StatusGatewayTimeout: true},
}

// FuzzRewriteBody posts each arbitrary body to /rewrite, /rewrite/batch
// and /run on the handler of a fresh server with a small /run instruction
// budget. It asserts no panic, only documented statuses (per batch item
// too), and no goroutine left behind after Shutdown.
func FuzzRewriteBody(f *testing.F) {
	img, err := workload.FuzzTarget(riscv.RV64GC, true)
	if err != nil {
		f.Fatal(err)
	}
	image := wire(f, img)
	for _, v := range []any{
		rewriteHTTPRequest{Method: "chbp", Target: "rv64gc", Image: image},
		rewriteHTTPRequest{Method: "safer", Target: "rv64gc", Resolve: true, Image: image},
		rewriteHTTPRequest{Method: "chbp", Target: "rv64gcv", EmptyPatch: true, Image: image[:len(image)/2]},
		batchHTTPRequest{Items: []rewriteHTTPRequest{
			{Method: "armore", Target: "rv64gc", Image: image},
			{Method: "nope", Target: "rv64gc", Image: image},
		}},
		runHTTPRequest{ISA: "rv64gc", Image: image},
		runHTTPRequest{Image: image, With: image},
	} {
		f.Add(mustJSON(f, v))
	}
	for _, raw := range []string{``, `{}`, `null`, `[]`, `{"items":[]}`, `{"items":[{}]}`,
		`{"image":"AAAA"}`, `{"bogus":1}`, `{"isa":"rv32i","image":"AAAA"}`, `{"image":`} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		before := runtime.NumGoroutine()
		srv := New(Config{Workers: 1, RunMaxInstret: 200_000, RequestTimeout: 10 * time.Second})
		h := srv.Handler()
		for _, path := range []string{"/rewrite", "/rewrite/batch", "/run"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if !rewriteBodyStatuses[path][rec.Code] {
				t.Fatalf("%s: undocumented status %d: %s", path, rec.Code, rec.Body.Bytes())
			}
			if path == "/rewrite/batch" && rec.Code == http.StatusOK {
				var out batchHTTPResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
					t.Fatalf("batch: 200 with an undecodable body: %v", err)
				}
				for i, it := range out.Items {
					if !rewriteBodyStatuses["/rewrite"][it.Status] {
						t.Fatalf("batch item %d: undocumented status %d: %s", i, it.Status, it.Error)
					}
				}
			}
		}
		shutdownNoLeaks(t, srv, before)
	})
}
