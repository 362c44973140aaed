package obj

import (
	"crypto/sha256"
	"encoding/hex"
)

// SHA256 returns the SHA-256 digest of the image's serialized (WriteTo)
// form. Two images hash equal iff their wire forms are byte-identical, so
// the digest is a content address: the rewrite service keys its cache on it
// (§4.2 amortizes rewrite cost by reusing one rewrite across every process
// that runs the binary). The wire form streams straight into the hash; it
// is never materialized.
func (img *Image) SHA256() ([sha256.Size]byte, error) {
	var out [sha256.Size]byte
	h := sha256.New()
	if err := img.encode(func(p []byte) { h.Write(p) }); err != nil {
		return out, err
	}
	h.Sum(out[:0])
	return out, nil
}

// ContentID returns the hex form of SHA256, for cache keys and logs.
func (img *Image) ContentID() (string, error) {
	sum, err := img.SHA256()
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(sum[:]), nil
}
