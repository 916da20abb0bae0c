package main

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"ctrise/internal/certs"
	"ctrise/internal/ctlog"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// Wire types of the ct/v1 and ctfront/v1 APIs as a client sees them.
// The generator keeps its own copies so its cost stays fixed when the
// server-side types change.
type addChainReq struct {
	Chain []string `json:"chain"`
}

type sctResp struct {
	LogName    string `json:"log_name"`
	SCTVersion uint8  `json:"sct_version"`
	ID         string `json:"id"`
	Timestamp  uint64 `json:"timestamp"`
	Extensions string `json:"extensions"`
	Signature  string `json:"signature"`
}

type bundleResp struct {
	SCTs []sctResp `json:"scts"`
}

type sthResp struct {
	TreeSize          uint64 `json:"tree_size"`
	Timestamp         uint64 `json:"timestamp"`
	SHA256RootHash    string `json:"sha256_root_hash"`
	TreeHeadSignature string `json:"tree_head_signature"`
}

type proofResp struct {
	LeafIndex uint64   `json:"leaf_index"`
	AuditPath []string `json:"audit_path"`
}

type consistencyResp struct {
	Consistency []string `json:"consistency"`
}

type entriesResp struct {
	Entries []struct {
		LeafInput string `json:"leaf_input"`
	} `json:"entries"`
}

// payload is one synthetic submission: a final certificate for
// add-chain or a precertificate TBS plus issuer key hash for
// add-pre-chain, with its request body prebuilt.
type payload struct {
	precert bool
	data    []byte // certificate, or TBS for a precertificate
	ikh     [32]byte
	body    []byte
}

func (p *payload) entry() sct.CertificateEntry {
	if p.precert {
		return sct.PrecertEntry(p.ikh, p.data)
	}
	return sct.X509Entry(p.data)
}

// route is the add path under a ct/v1 or ctfront/v1 prefix.
func (p *payload) route() string {
	if p.precert {
		return "add-pre-chain"
	}
	return "add-chain"
}

// leafHash is the Merkle leaf hash the log that issued s must hold.
func (p *payload) leafHash(s *sct.SignedCertificateTimestamp) (merkle.Hash, error) {
	e := ctlog.Entry{Timestamp: s.Timestamp, Cert: p.data, Extensions: s.Extensions, Type: sct.X509LogEntryType}
	if p.precert {
		e.Type = sct.PrecertLogEntryType
		e.IssuerKeyHash = p.ikh
	}
	return e.LeafHash()
}

// mix64 is splitmix64's finalizer: cheap, seedable per-index randomness.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rnd derives the f-th random word for item i of a seed.
func rnd(seed int64, i int, f uint64) uint64 {
	return mix64(mix64(uint64(seed)^0x5bd1e995) ^ mix64(uint64(i)<<8|f))
}

var labels = []string{"mail", "api", "shop", "login", "portal", "cdn", "vpn", "dev", "staging", "intranet", "owa", "git"}
var tlds = []string{"com", "net", "org", "de", "io", "co.uk", "fr", "info"}

// notBefore anchors every synthetic certificate at the paper's
// measurement window; the 90-day lifetime makes the Chrome policy ask
// for two SCTs, one of them from a Google-operated log.
var notBefore = time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)

// makePayload builds submission i of a seed: a precertificate with
// probability precertShare, else a final certificate.
func makePayload(seed int64, i int, precertShare float64) payload {
	host := fmt.Sprintf("%s.%x-%d.example.%s", labels[rnd(seed, i, 1)%uint64(len(labels))],
		uint32(rnd(seed, i, 2)), i, tlds[rnd(seed, i, 3)%uint64(len(tlds))])
	ca := rnd(seed, i, 4) % 4
	c := &certs.Certificate{
		SerialNumber: rnd(seed, i, 5),
		Issuer:       certs.Name{CommonName: fmt.Sprintf("Perfbench Issuing CA %d", ca), Organization: "Perfbench Trust"},
		Subject:      certs.Name{CommonName: host},
		DNSNames:     []string{host, "www." + host},
		NotBefore:    notBefore,
		NotAfter:     notBefore.Add(90 * 24 * time.Hour),
	}
	p := payload{precert: float64(rnd(seed, i, 6)>>11)/(1<<53) < precertShare}
	var chain []string
	if p.precert {
		c.AddPoison()
		tbs, err := c.TBSForSCT()
		if err != nil {
			panic(err) // the fields above always fit the codec
		}
		p.data = tbs
		p.ikh = sha256.Sum256([]byte(c.Issuer.CommonName))
		chain = []string{base64.StdEncoding.EncodeToString(tbs), base64.StdEncoding.EncodeToString(p.ikh[:])}
	} else {
		p.data = c.MustEncode()
		chain = []string{base64.StdEncoding.EncodeToString(p.data)}
	}
	body, err := json.Marshal(addChainReq{Chain: chain})
	if err != nil {
		panic(err)
	}
	p.body = body
	return p
}

// entryKey identifies a submission by its entry type and bytes, the
// identity a monitor can recover from get-entries.
func entryKey(precert bool, data []byte) string {
	var b [1]byte
	if precert {
		b[0] = 1
	}
	return string(b[:]) + string(data)
}

func parseSCT(r sctResp) (*sct.SignedCertificateTimestamp, error) {
	id, err := base64.StdEncoding.DecodeString(r.ID)
	if err != nil || len(id) != sct.LogIDSize {
		return nil, errors.New("bad SCT log id")
	}
	ext, err := base64.StdEncoding.DecodeString(r.Extensions)
	if err != nil {
		return nil, errors.New("bad SCT extensions")
	}
	sig, err := base64.StdEncoding.DecodeString(r.Signature)
	if err != nil {
		return nil, errors.New("bad SCT signature encoding")
	}
	ds, err := sct.ParseDigitallySigned(sig)
	if err != nil {
		return nil, err
	}
	s := &sct.SignedCertificateTimestamp{SCTVersion: sct.Version(r.SCTVersion), Timestamp: r.Timestamp, Extensions: ext, Signature: ds}
	copy(s.LogID[:], id)
	return s, nil
}

// sth is a verified signed tree head.
type sth struct {
	size uint64
	root merkle.Hash
}

// getSTH fetches the log's signed tree head and checks its signature.
func getSTH(ctx context.Context, c *client, base string, v sct.SCTVerifier, span uint64) (sth, error) {
	data, err := c.do(ctx, http.MethodGet, base+"/ct/v1/get-sth", nil, span)
	if err != nil {
		return sth{}, err
	}
	var r sthResp
	if err := json.Unmarshal(data, &r); err != nil {
		return sth{}, fmt.Errorf("decoding get-sth: %w", err)
	}
	root, err := base64.StdEncoding.DecodeString(r.SHA256RootHash)
	if err != nil || len(root) != merkle.HashSize {
		return sth{}, errors.New("get-sth: bad root hash")
	}
	sig, err := base64.StdEncoding.DecodeString(r.TreeHeadSignature)
	if err != nil {
		return sth{}, errors.New("get-sth: bad signature encoding")
	}
	ds, err := sct.ParseDigitallySigned(sig)
	if err != nil {
		return sth{}, err
	}
	th := sct.TreeHead{Timestamp: r.Timestamp, TreeSize: r.TreeSize}
	copy(th.RootHash[:], root)
	if err := v.VerifyTreeHead(th, ds); err != nil {
		return sth{}, fmt.Errorf("get-sth: %w", err)
	}
	return sth{size: r.TreeSize, root: merkle.Hash(th.RootHash)}, nil
}

// checkInclusion fetches get-proof-by-hash for leaf at head's size and
// verifies the audit path against head's root. It returns the leaf
// index the log named.
func checkInclusion(ctx context.Context, c *client, base string, leaf merkle.Hash, head sth, span uint64) (uint64, error) {
	u := fmt.Sprintf("%s/ct/v1/get-proof-by-hash?hash=%s&tree_size=%d", base,
		url.QueryEscape(base64.StdEncoding.EncodeToString(leaf[:])), head.size)
	body, err := c.do(ctx, http.MethodGet, u, nil, span)
	if err != nil {
		return 0, err
	}
	var pr proofResp
	if err := json.Unmarshal(body, &pr); err != nil {
		return 0, fmt.Errorf("decoding get-proof-by-hash: %w", err)
	}
	path, err := decodeHashes(pr.AuditPath)
	if err != nil {
		return 0, err
	}
	if err := merkle.VerifyInclusion(leaf, pr.LeafIndex, head.size, path, head.root); err != nil {
		return 0, fmt.Errorf("inclusion of entry %d: %w", pr.LeafIndex, err)
	}
	return pr.LeafIndex, nil
}

func decodeHashes(in []string) ([]merkle.Hash, error) {
	out := make([]merkle.Hash, len(in))
	for i, s := range in {
		b, err := base64.StdEncoding.DecodeString(s)
		if err != nil || len(b) != merkle.HashSize {
			return nil, fmt.Errorf("bad hash %d in proof", i)
		}
		copy(out[i][:], b)
	}
	return out, nil
}

// parseEntries decodes a get-entries body into leaf hashes and entries.
func parseEntries(data []byte) ([]merkle.Hash, []*ctlog.Entry, error) {
	var r entriesResp
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, nil, fmt.Errorf("decoding get-entries: %w", err)
	}
	hashes := make([]merkle.Hash, len(r.Entries))
	entries := make([]*ctlog.Entry, len(r.Entries))
	for i, le := range r.Entries {
		leaf, err := base64.StdEncoding.DecodeString(le.LeafInput)
		if err != nil {
			return nil, nil, fmt.Errorf("get-entries: bad leaf %d", i)
		}
		e, err := ctlog.ParseMerkleTreeLeaf(leaf)
		if err != nil {
			return nil, nil, err
		}
		hashes[i] = merkle.HashLeaf(leaf)
		entries[i] = e
	}
	return hashes, entries, nil
}

// frontier computes RFC 6962 prefix roots incrementally: append leaves
// in order and read the root of the prefix seen so far.
type frontier struct {
	nodes []merkle.Hash // perfect subtree roots, largest first
	sizes []uint64
}

func (f *frontier) push(h merkle.Hash) {
	f.nodes = append(f.nodes, h)
	f.sizes = append(f.sizes, 1)
	for n := len(f.nodes); n >= 2 && f.sizes[n-1] == f.sizes[n-2]; n = len(f.nodes) {
		f.nodes[n-2] = merkle.HashChildren(f.nodes[n-2], f.nodes[n-1])
		f.sizes[n-2] *= 2
		f.nodes, f.sizes = f.nodes[:n-1], f.sizes[:n-1]
	}
}

func (f *frontier) root() merkle.Hash {
	if len(f.nodes) == 0 {
		return merkle.EmptyRoot()
	}
	r := f.nodes[len(f.nodes)-1]
	for i := len(f.nodes) - 2; i >= 0; i-- {
		r = merkle.HashChildren(f.nodes[i], r)
	}
	return r
}

// pick draws a deterministic index in [0, n) for item i of a seed.
func pick(seed int64, i int, f uint64, n int) int {
	return int(rnd(seed, i, f) % uint64(n))
}
