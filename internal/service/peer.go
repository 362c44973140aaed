package service

import (
	"io"
	"net/http"
	"time"

	"github.com/eurosys26p57/chimera/internal/chaos"
	"github.com/eurosys26p57/chimera/internal/cluster"
	"github.com/eurosys26p57/chimera/internal/store"
)

// handlePeerStore serves the cluster peer protocol (see cluster.Remote):
//
//	GET /peer/store/{id}  entry lookup by hashed key (full key in the
//	                      X-Chimera-Key header) — 200 + encoded entry | 404
//	PUT /peer/store/{id}  entry offer; body is the encoded (checksummed)
//	                      entry — 204 on acceptance
//
// The handler only touches the local tiers (never the cluster), so peer
// traffic cannot recurse. Offered entries are decode-verified before
// storage; a corrupt or mismatched body is rejected, which means a faulty
// peer can waste a round trip but never poison the store. Each request
// hashes its entry once: a PUT in DecodeEntry (both tiers reuse the sealed
// sum), a GET in the local hit's verification (the body's header reuses
// the stored entry's sealed sum).
//
// Chaos kinds PeerTimeout/PeerError/PeerCorrupt fire HERE, on the serving
// side, so cluster soaks exercise the client's full failure handling over
// real HTTP: stalls that outlast the peer timeout, 500s, and bodies whose
// checksum no longer matches.
func (s *Server) handlePeerStore(w http.ResponseWriter, r *http.Request) {
	inj := s.cfg.Chaos
	if inj.Roll(chaos.PeerError) {
		http.Error(w, "peer chaos: induced error", http.StatusInternalServerError)
		return
	}
	if inj.Roll(chaos.PeerTimeout) {
		// Outlast any sane peer timeout; the client gives up first and the
		// handler finishes harmlessly afterwards.
		time.Sleep(s.cfg.PeerTimeout + 500*time.Millisecond)
	}
	id := r.URL.Path[len(cluster.PeerPathPrefix):]
	key := r.Header.Get(cluster.KeyHeader)
	if key == "" || cluster.EntryID(key) != id {
		s.tel.peerRejects.Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "peer: key header and id do not match"})
		return
	}
	switch r.Method {
	case http.MethodGet:
		e, _, ok := s.st.Get(key)
		if !ok {
			http.NotFound(w, r)
			return
		}
		body := store.EncodeEntry(e)
		if inj.Roll(chaos.PeerCorrupt) && len(body) > 0 {
			bit := inj.Intn(len(body) * 8)
			body[bit/8] ^= 1 << (bit % 8)
		}
		s.tel.peerServes.Inc()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(body)
	case http.MethodPut:
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes+(1<<20))
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			s.tel.peerRejects.Inc()
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "peer: reading body: " + err.Error()})
			return
		}
		e, err := store.DecodeEntry(raw)
		if err != nil || e.Key != key {
			s.tel.peerRejects.Inc()
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "peer: corrupt or mismatched entry"})
			return
		}
		s.st.Put(e)
		s.tel.peerAccepts.Inc()
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET or PUT only"})
	}
}
