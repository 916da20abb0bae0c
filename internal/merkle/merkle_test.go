package merkle

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// RFC 6962 test vectors (from the reference implementation's test suite):
// the tree over the 8 leaf inputs below.
var rfcLeaves = [][]byte{
	{},
	{0x00},
	{0x10},
	{0x20, 0x21},
	{0x30, 0x31},
	{0x40, 0x41, 0x42, 0x43},
	{0x50, 0x51, 0x52, 0x53, 0x54, 0x55, 0x56, 0x57},
	{0x60, 0x61, 0x62, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x6b, 0x6c, 0x6d, 0x6e, 0x6f},
}

var rfcRoots = []string{
	"6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
	"fac54203e7cc696cf0dfcb42c92a1d9dbaf70ad9e621f4bd8d98662f00e3c125",
	"aeb6bcfe274b70a14fb067a5e5578264db0fa9b51af5e0ba159158f329e06e77",
	"d37ee418976dd95753c1c73862b9398fa2a2cf9b4ff0fdfe8b30cd95209614b7",
	"4e3bbb1f7b478dcfe71fb631631519a3bca12c9aefca1612bfce4c13a86264d4",
	"76e67dadbcdf1e10e1b74ddc608abd2f98dfb16fbce75277b5232a127f2087ef",
	"ddb89be403809e325750d3d263cd78929c2942b7942a34b77e122c9594a74c8c",
	"5dc9da79a70659a9ad559cb701ded9a2ab9d823aad2f4960cfe370eff4604328",
}

// The reference below is written straight from the RFC 6962 §2.1
// definitions over raw leaf bytes, by direct O(n) recursion and with its
// own hashing. Trees under test are compared against it, never against
// another tree, so a bug shared by the cached algorithms cannot hide.

// refLeaf is the leaf hash SHA-256(0x00 || d).
func refLeaf(d []byte) Hash {
	return sha256.Sum256(append([]byte{0x00}, d...))
}

// refNode is the interior hash SHA-256(0x01 || l || r).
func refNode(l, r Hash) Hash {
	b := append([]byte{0x01}, l[:]...)
	return sha256.Sum256(append(b, r[:]...))
}

// refSplit is k: the largest power of two strictly less than n (n ≥ 2).
func refSplit(n int) int {
	k := 1
	for k<<1 < n {
		k <<= 1
	}
	return k
}

// refMTH is MTH(D).
func refMTH(d [][]byte) Hash {
	switch len(d) {
	case 0:
		return sha256.Sum256(nil)
	case 1:
		return refLeaf(d[0])
	}
	k := refSplit(len(d))
	return refNode(refMTH(d[:k]), refMTH(d[k:]))
}

// refPath is PATH(m, D): the audit path of leaf m.
func refPath(m int, d [][]byte) []Hash {
	if len(d) <= 1 {
		return nil
	}
	k := refSplit(len(d))
	if m < k {
		return append(refPath(m, d[:k]), refMTH(d[k:]))
	}
	return append(refPath(m-k, d[k:]), refMTH(d[:k]))
}

// refSubproof is SUBPROOF(m, D, b); PROOF(m, D) is refSubproof(m, D, true).
func refSubproof(m int, d [][]byte, b bool) []Hash {
	if m == len(d) {
		if b {
			return nil
		}
		return []Hash{refMTH(d)}
	}
	k := refSplit(len(d))
	if m <= k {
		return append(refSubproof(m, d[:k], b), refMTH(d[k:]))
	}
	return append(refSubproof(m-k, d[k:], false), refMTH(d[:k]))
}

func sameHashes(a, b []Hash) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// treeMode is one configuration every tree test runs in: a tree that is
// never sealed, or one that seals every complete tile after each append
// and so serves its pruned nodes back through a NodeSource.
type treeMode struct {
	name string
	span uint64
	seal bool
}

var treeModes = []treeMode{
	{"unsealed", 2, false},
	{"sealed-span2", 2, true},
	{"sealed-span4", 4, true},
}

// forEachMode runs fn as one subtest per tree mode.
func forEachMode(t *testing.T, fn func(t *testing.T, m treeMode)) {
	for _, m := range treeModes {
		t.Run(m.name, func(t *testing.T) { fn(t, m) })
	}
}

// newTree returns an empty tree in mode m. In a sealing mode its
// NodeSource serves the nodes of leaves, the data the test will append.
func (m treeMode) newTree(t testing.TB, leaves [][]byte) *TiledTree {
	t.Helper()
	var src NodeSource
	if m.seal {
		src = &treeSource{leaves: leaves}
	}
	tr, err := NewTiled(m.span, src)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// add appends data, then in a sealing mode seals every complete tile.
func (m treeMode) add(t testing.TB, tr *TiledTree, data []byte) uint64 {
	t.Helper()
	idx := tr.AppendData(data)
	if m.seal {
		if err := tr.Seal(tr.Size() / m.span * m.span); err != nil {
			t.Fatalf("Seal at size %d: %v", tr.Size(), err)
		}
	}
	return idx
}

// build returns a tree in mode m over leaves.
func (m treeMode) build(t testing.TB, leaves [][]byte) *TiledTree {
	t.Helper()
	tr := m.newTree(t, leaves)
	for _, l := range leaves {
		m.add(t, tr, l)
	}
	return tr
}

func mustRoot(t testing.TB, tr *TiledTree) Hash {
	t.Helper()
	return mustRootAt(t, tr, tr.Size())
}

func mustRootAt(t testing.TB, tr *TiledTree, n uint64) Hash {
	t.Helper()
	root, err := tr.RootAt(n)
	if err != nil {
		t.Fatalf("RootAt(%d): %v", n, err)
	}
	return root
}

func TestEmptyRoot(t *testing.T) {
	want := Hash(sha256.Sum256(nil))
	if got := EmptyRoot(); got != want {
		t.Fatalf("EmptyRoot = %s", got)
	}
	forEachMode(t, func(t *testing.T, m treeMode) {
		tr := m.newTree(t, nil)
		root, err := tr.Root()
		if err != nil {
			t.Fatal(err)
		}
		if root != want {
			t.Fatalf("empty root = %s", root)
		}
	})
}

func TestRFC6962Roots(t *testing.T) {
	for i := range rfcLeaves {
		if got := refMTH(rfcLeaves[:i+1]); hex.EncodeToString(got[:]) != rfcRoots[i] {
			t.Fatalf("reference MTH at size %d = %s, want %s", i+1, got, rfcRoots[i])
		}
	}
	forEachMode(t, func(t *testing.T, m treeMode) {
		tr := m.newTree(t, rfcLeaves)
		for i, leaf := range rfcLeaves {
			m.add(t, tr, leaf)
			got, err := tr.Root()
			if err != nil {
				t.Fatalf("size %d: %v", i+1, err)
			}
			if hex.EncodeToString(got[:]) != rfcRoots[i] {
				t.Errorf("size %d: root = %s, want %s", i+1, got, rfcRoots[i])
			}
		}
	})
}

func TestRootAtMatchesIncremental(t *testing.T) {
	forEachMode(t, func(t *testing.T, m treeMode) {
		tr := m.build(t, rfcLeaves)
		for n := 1; n <= 8; n++ {
			got := mustRootAt(t, tr, uint64(n))
			if hex.EncodeToString(got[:]) != rfcRoots[n-1] {
				t.Errorf("RootAt(%d) = %s, want %s", n, got, rfcRoots[n-1])
			}
		}
	})
}

func TestRootAtZero(t *testing.T) {
	forEachMode(t, func(t *testing.T, m treeMode) {
		tr := m.build(t, rfcLeaves[:3])
		if got := mustRootAt(t, tr, 0); got != EmptyRoot() {
			t.Fatalf("RootAt(0) = %s", got)
		}
	})
}

func TestRootAtOutOfRange(t *testing.T) {
	forEachMode(t, func(t *testing.T, m treeMode) {
		tr := m.build(t, rfcLeaves[:3])
		if _, err := tr.RootAt(4); !errors.Is(err, ErrSizeOutOfRange) {
			t.Fatalf("RootAt past size: err=%v, want ErrSizeOutOfRange", err)
		}
	})
}

// Every (i, n) audit path over the RFC 6962 vector leaves must equal the
// reference PATH and verify.
func TestInclusionProofAllPairs(t *testing.T) {
	forEachMode(t, func(t *testing.T, m treeMode) {
		tr := m.build(t, rfcLeaves)
		for n := uint64(1); n <= 8; n++ {
			root := mustRootAt(t, tr, n)
			for i := uint64(0); i < n; i++ {
				proof, err := tr.InclusionProof(i, n)
				if err != nil {
					t.Fatalf("InclusionProof(%d,%d): %v", i, n, err)
				}
				if !sameHashes(proof, refPath(int(i), rfcLeaves[:n])) {
					t.Errorf("InclusionProof(%d,%d) differs from the reference", i, n)
				}
				leaf := HashLeaf(rfcLeaves[i])
				if err := VerifyInclusion(leaf, i, n, proof, root); err != nil {
					t.Errorf("VerifyInclusion(%d,%d): %v", i, n, err)
				}
			}
		}
	})
}

func TestInclusionProofRejectsWrongLeaf(t *testing.T) {
	forEachMode(t, func(t *testing.T, m treeMode) {
		tr := m.build(t, rfcLeaves)
		proof, err := tr.InclusionProof(2, 8)
		if err != nil {
			t.Fatal(err)
		}
		wrong := HashLeaf([]byte("not the leaf"))
		if err := VerifyInclusion(wrong, 2, 8, proof, mustRoot(t, tr)); !errors.Is(err, ErrProofInvalid) {
			t.Fatalf("wrong leaf: err=%v, want ErrProofInvalid", err)
		}
	})
}

func TestInclusionProofRejectsWrongIndex(t *testing.T) {
	forEachMode(t, func(t *testing.T, m treeMode) {
		tr := m.build(t, rfcLeaves)
		proof, err := tr.InclusionProof(2, 8)
		if err != nil {
			t.Fatal(err)
		}
		leaf := HashLeaf(rfcLeaves[2])
		if err := VerifyInclusion(leaf, 3, 8, proof, mustRoot(t, tr)); !errors.Is(err, ErrProofInvalid) {
			t.Fatalf("wrong index: err=%v, want ErrProofInvalid", err)
		}
	})
}

func TestInclusionProofRejectsTamperedProof(t *testing.T) {
	forEachMode(t, func(t *testing.T, m treeMode) {
		tr := m.build(t, rfcLeaves)
		proof, err := tr.InclusionProof(5, 8)
		if err != nil {
			t.Fatal(err)
		}
		proof[0][3] ^= 0xff
		if err := VerifyInclusion(HashLeaf(rfcLeaves[5]), 5, 8, proof, mustRoot(t, tr)); !errors.Is(err, ErrProofInvalid) {
			t.Fatalf("tampered proof: err=%v, want ErrProofInvalid", err)
		}
	})
}

func TestInclusionProofErrors(t *testing.T) {
	forEachMode(t, func(t *testing.T, m treeMode) {
		tr := m.build(t, rfcLeaves[:4])
		if _, err := tr.InclusionProof(4, 4); !errors.Is(err, ErrIndexOutOfRange) {
			t.Errorf("index == size: err=%v, want ErrIndexOutOfRange", err)
		}
		if _, err := tr.InclusionProof(0, 5); !errors.Is(err, ErrSizeOutOfRange) {
			t.Errorf("size > tree: err=%v, want ErrSizeOutOfRange", err)
		}
	})
	// A proof of the wrong length must be rejected.
	if _, err := RootFromInclusionProof(HashLeaf(rfcLeaves[0]), 0, 4, []Hash{{}}); !errors.Is(err, ErrProofInvalid) {
		t.Errorf("short proof: err=%v, want ErrProofInvalid", err)
	}
	if _, err := RootFromInclusionProof(HashLeaf(rfcLeaves[0]), 4, 4, nil); !errors.Is(err, ErrIndexOutOfRange) {
		t.Errorf("index == size: err=%v, want ErrIndexOutOfRange", err)
	}
}

// Every (m, n) consistency proof over the RFC 6962 vector leaves must
// equal the reference PROOF and verify.
func TestConsistencyAllPairs(t *testing.T) {
	forEachMode(t, func(t *testing.T, m treeMode) {
		tr := m.build(t, rfcLeaves)
		for first := uint64(1); first <= 8; first++ {
			root1 := mustRootAt(t, tr, first)
			for n := first; n <= 8; n++ {
				root2 := mustRootAt(t, tr, n)
				proof, err := tr.ConsistencyProof(first, n)
				if err != nil {
					t.Fatalf("ConsistencyProof(%d,%d): %v", first, n, err)
				}
				if !sameHashes(proof, refSubproof(int(first), rfcLeaves[:n], true)) {
					t.Errorf("ConsistencyProof(%d,%d) differs from the reference", first, n)
				}
				if err := VerifyConsistency(first, n, root1, root2, proof); err != nil {
					t.Errorf("VerifyConsistency(%d,%d): %v", first, n, err)
				}
			}
		}
	})
}

func TestConsistencyRejectsForkedTree(t *testing.T) {
	// A forked tree shares the first 4 leaves, then diverges.
	forkedLeaves := append([][]byte{}, rfcLeaves[:4]...)
	for i := 4; i < 8; i++ {
		forkedLeaves = append(forkedLeaves, []byte(fmt.Sprintf("divergent-%d", i)))
	}
	forEachMode(t, func(t *testing.T, m treeMode) {
		tr := m.build(t, rfcLeaves)
		forked := m.build(t, forkedLeaves)
		root1 := mustRootAt(t, tr, 6) // not a prefix of forked at size 6
		proof, err := forked.ConsistencyProof(6, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyConsistency(6, 8, root1, mustRoot(t, forked), proof); !errors.Is(err, ErrProofInvalid) {
			t.Fatalf("size-6 tree is not a prefix of the forked tree: err=%v, want ErrProofInvalid", err)
		}
	})
}

func TestConsistencyEqualSizes(t *testing.T) {
	forEachMode(t, func(t *testing.T, m treeMode) {
		tr := m.build(t, rfcLeaves[:5])
		root := mustRootAt(t, tr, 5)
		proof, err := tr.ConsistencyProof(5, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(proof) != 0 {
			t.Fatalf("proof for equal sizes should be empty, got %d nodes", len(proof))
		}
		if err := VerifyConsistency(5, 5, root, root, nil); err != nil {
			t.Fatal(err)
		}
	})
}

func TestConsistencyErrors(t *testing.T) {
	forEachMode(t, func(t *testing.T, m treeMode) {
		tr := m.build(t, rfcLeaves[:4])
		if _, err := tr.ConsistencyProof(0, 4); !errors.Is(err, ErrEmptyRange) {
			t.Errorf("m=0: err=%v, want ErrEmptyRange", err)
		}
		if _, err := tr.ConsistencyProof(3, 5); !errors.Is(err, ErrSizeOutOfRange) {
			t.Errorf("n > size: err=%v, want ErrSizeOutOfRange", err)
		}
		if _, err := tr.ConsistencyProof(4, 3); !errors.Is(err, ErrSizeOutOfRange) {
			t.Errorf("m > n: err=%v, want ErrSizeOutOfRange", err)
		}
	})
	if err := VerifyConsistency(3, 2, Hash{}, Hash{}, nil); !errors.Is(err, ErrSizeOutOfRange) {
		t.Errorf("verify with m > n: err=%v, want ErrSizeOutOfRange", err)
	}
	if err := VerifyConsistency(2, 2, Hash{1}, Hash{2}, nil); !errors.Is(err, ErrProofInvalid) {
		t.Errorf("equal sizes different roots: err=%v, want ErrProofInvalid", err)
	}
	if err := VerifyConsistency(0, 2, EmptyRoot(), Hash{2}, []Hash{{}}); !errors.Is(err, ErrProofInvalid) {
		t.Errorf("nonempty proof from empty tree: err=%v, want ErrProofInvalid", err)
	}
	if err := VerifyConsistency(0, 2, EmptyRoot(), Hash{2}, nil); err != nil {
		t.Errorf("empty tree consistency: %v", err)
	}
}

func TestLeafHash(t *testing.T) {
	leaves := [][]byte{[]byte("hello"), []byte("world")}
	forEachMode(t, func(t *testing.T, m treeMode) {
		tr := m.newTree(t, leaves)
		for i, l := range leaves {
			if idx := m.add(t, tr, l); idx != uint64(i) {
				t.Fatalf("append %d returned index %d", i, idx)
			}
		}
		for i, l := range leaves {
			got, err := tr.LeafHash(uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			if got != refLeaf(l) {
				t.Fatalf("leaf %d hash mismatch", i)
			}
		}
		if _, err := tr.LeafHash(2); !errors.Is(err, ErrIndexOutOfRange) {
			t.Fatalf("out-of-range leaf hash: err=%v, want ErrIndexOutOfRange", err)
		}
	})
}

func TestDomainSeparation(t *testing.T) {
	// A leaf containing what looks like two node hashes must not collide
	// with the interior node over those hashes.
	l, r := HashLeaf([]byte("l")), HashLeaf([]byte("r"))
	node := HashChildren(l, r)
	leafData := append(append([]byte{}, l[:]...), r[:]...)
	if HashLeaf(leafData) == node {
		t.Fatal("leaf/node domain separation broken")
	}
}

func TestSplitPoint(t *testing.T) {
	cases := map[uint64]uint64{2: 1, 3: 2, 4: 2, 5: 4, 7: 4, 8: 4, 9: 8, 1 << 20: 1 << 19, (1 << 20) + 1: 1 << 20}
	for n, want := range cases {
		if got := splitPoint(n); got != want {
			t.Errorf("splitPoint(%d) = %d, want %d", n, got, want)
		}
	}
}

// Property: for random trees, inclusion proofs equal the reference,
// verify for every leaf, and fail for a perturbed root.
func TestPropertyInclusionRandomTrees(t *testing.T) {
	forEachMode(t, func(t *testing.T, m treeMode) {
		rng := rand.New(rand.NewSource(42))
		for iter := 0; iter < 30; iter++ {
			n := 1 + rng.Intn(200)
			data := make([][]byte, n)
			for i := range data {
				data[i] = make([]byte, rng.Intn(50))
				rng.Read(data[i])
			}
			tr := m.build(t, data)
			root := mustRoot(t, tr)
			if root != refMTH(data) {
				t.Fatalf("n=%d: root differs from the reference", n)
			}
			i := uint64(rng.Intn(n))
			proof, err := tr.InclusionProof(i, uint64(n))
			if err != nil {
				t.Fatal(err)
			}
			if !sameHashes(proof, refPath(int(i), data)) {
				t.Fatalf("n=%d i=%d: proof differs from the reference", n, i)
			}
			if err := VerifyInclusion(HashLeaf(data[i]), i, uint64(n), proof, root); err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			bad := root
			bad[0] ^= 1
			if err := VerifyInclusion(HashLeaf(data[i]), i, uint64(n), proof, bad); err == nil {
				t.Fatalf("n=%d i=%d: verified against wrong root", n, i)
			}
		}
	})
}

// Property: consistency proofs equal the reference and verify for random
// (m, n) pairs on random trees.
func TestPropertyConsistencyRandomTrees(t *testing.T) {
	forEachMode(t, func(t *testing.T, m treeMode) {
		rng := rand.New(rand.NewSource(7))
		for iter := 0; iter < 30; iter++ {
			n := 2 + rng.Intn(300)
			data := make([][]byte, n)
			for i := range data {
				data[i] = make([]byte, 8+rng.Intn(16))
				rng.Read(data[i])
			}
			tr := m.build(t, data)
			first := uint64(1 + rng.Intn(n))
			root1 := mustRootAt(t, tr, first)
			root2 := mustRoot(t, tr)
			proof, err := tr.ConsistencyProof(first, uint64(n))
			if err != nil {
				t.Fatal(err)
			}
			if !sameHashes(proof, refSubproof(int(first), data, true)) {
				t.Fatalf("m=%d n=%d: proof differs from the reference", first, n)
			}
			if err := VerifyConsistency(first, uint64(n), root1, root2, proof); err != nil {
				t.Fatalf("m=%d n=%d: %v", first, n, err)
			}
		}
	})
}

// Property (quick): the cached root of any leaf sequence, in every tree
// mode, equals MTH recomputed from scratch by the reference.
func TestQuickRootMatchesNaive(t *testing.T) {
	f := func(raw [][]byte) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		want := refMTH(raw)
		for _, m := range treeModes {
			if mustRoot(t, m.build(t, raw)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	tr, err := NewTiled(1024, nil)
	if err != nil {
		b.Fatal(err)
	}
	leaf := []byte("benchmark leaf data: some certificate bytes")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.AppendData(leaf)
	}
}

func BenchmarkInclusionProof(b *testing.B) {
	tr, err := NewTiled(1024, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1<<16; i++ {
		tr.AppendData([]byte{byte(i), byte(i >> 8)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.InclusionProof(uint64(i)%tr.Size(), tr.Size()); err != nil {
			b.Fatal(err)
		}
	}
}
