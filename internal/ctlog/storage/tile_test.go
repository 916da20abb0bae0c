package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"ctrise/internal/merkle"
)

// tileTestLeaves builds span deterministic fake MerkleTreeLeaf byte
// strings and their hashes.
func tileTestLeaves(span int) (leaves [][]byte, leafHashes, idHashes [][32]byte) {
	for i := 0; i < span; i++ {
		leaf := []byte(fmt.Sprintf("\x00\x00tile-leaf-%03d", i))
		leaves = append(leaves, leaf)
		leafHashes = append(leafHashes, [32]byte(merkle.HashLeaf(leaf)))
		idHashes = append(idHashes, sha256.Sum256(leaf))
	}
	return
}

func TestLeafTileRoundTrip(t *testing.T) {
	leaves, _, _ := tileTestLeaves(8)
	tile := &LeafTile{Tile: 42, Span: 8, Leaves: leaves}
	enc := EncodeLeafTile(tile)
	dec, err := DecodeLeafTile(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Tile != 42 || dec.Span != 8 || !reflect.DeepEqual(dec.Leaves, leaves) {
		t.Fatal("leaf tile round trip mismatch")
	}
	if got := EncodeLeafTile(dec); !bytes.Equal(got, enc) {
		t.Fatal("leaf tile encoding is not canonical")
	}
	// A leaf tile must hold exactly span entries.
	short := &LeafTile{Tile: 42, Span: 8, Leaves: leaves[:7]}
	if _, err := DecodeLeafTile(EncodeLeafTile(short)); err == nil {
		t.Fatal("leaf tile with missing entry decoded")
	}
}

func TestHashTileBuildVerifyAndCorruption(t *testing.T) {
	const span = 8
	leaves, leafHashes, _ := tileTestLeaves(span)
	ht, err := BuildHashTile(3, leafHashes)
	if err != nil {
		t.Fatal(err)
	}
	// The tile root must equal the reference tree's subtree root.
	ref, err := merkle.NewTiled(span, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leaves {
		ref.AppendData(l)
	}
	want, err := ref.Root()
	if err != nil {
		t.Fatal(err)
	}
	if ht.Root() != [32]byte(want) {
		t.Fatal("hash tile root differs from reference merkle root")
	}
	enc := EncodeHashTile(ht)
	dec, err := DecodeHashTile(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Root() != ht.Root() || len(dec.Levels) != len(ht.Levels) {
		t.Fatal("hash tile round trip mismatch")
	}
	if got := EncodeHashTile(dec); !bytes.Equal(got, enc) {
		t.Fatal("hash tile encoding is not canonical")
	}
	// Every single flipped byte anywhere in the image must be detected:
	// either by a record CRC or by the parent-from-children recompute.
	for off := 0; off < len(enc); off++ {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x01
		if _, err := DecodeHashTile(mut); err == nil {
			t.Fatalf("flipped byte at offset %d went undetected", off)
		}
	}
	if _, err := BuildHashTile(0, leafHashes[:3]); err == nil {
		t.Fatal("BuildHashTile accepted a non-power-of-two span")
	}
}

func TestTileIndexSearchAndValidation(t *testing.T) {
	const span = 16
	_, leafHashes, idHashes := tileTestLeaves(span)
	ix := BuildTileIndex(7, 7*span, idHashes, leafHashes)
	enc := EncodeTileIndex(ix)
	dec, err := DecodeTileIndex(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodeTileIndex(dec); !bytes.Equal(got, enc) {
		t.Fatal("index tile encoding is not canonical")
	}
	for i, h := range idHashes {
		if !dec.IDBloom.Test(h) {
			t.Fatalf("bloom false negative for id hash %d", i)
		}
		idx, ok := SearchIndexRows(dec.ID, h)
		if !ok || idx != uint64(7*span+i) {
			t.Fatalf("id row %d: got (%d, %v)", i, idx, ok)
		}
	}
	for i, h := range leafHashes {
		if !dec.LeafBloom.Test(h) {
			t.Fatalf("bloom false negative for leaf hash %d", i)
		}
		idx, ok := SearchIndexRows(dec.Leaf, h)
		if !ok || idx != uint64(7*span+i) {
			t.Fatalf("leaf row %d: got (%d, %v)", i, idx, ok)
		}
	}
	var absent [32]byte
	absent[0] = 0xAB
	if _, ok := SearchIndexRows(dec.ID, absent); ok {
		t.Fatal("found an absent hash")
	}

	// Out-of-order rows must be rejected: swap two sorted rows and
	// re-encode by hand.
	broken := *ix
	broken.ID = append([]IndexRow(nil), ix.ID...)
	broken.ID[0], broken.ID[1] = broken.ID[1], broken.ID[0]
	if _, err := DecodeTileIndex(EncodeTileIndex(&broken)); err == nil {
		t.Fatal("unsorted index rows decoded")
	}
}

func TestBloomSizing(t *testing.T) {
	b := NewBloom(1024)
	if got := len(b.Bits) * 8; got != 16384 {
		t.Fatalf("bloom for 1024 keys has %d bits, want 16384", got)
	}
	// False-positive spot check: fill with n keys, probe 10n others; at
	// ~16 bits/key, k=4, the FP rate is ≈0.24% — allow 1.5%.
	n := 1024
	b = NewBloom(n)
	key := func(i int) [32]byte {
		var h [32]byte
		sum := sha256.Sum256(binary.BigEndian.AppendUint64(nil, uint64(i)))
		copy(h[:], sum[:])
		return h
	}
	for i := 0; i < n; i++ {
		b.Add(key(i))
	}
	fp := 0
	for i := n; i < 11*n; i++ {
		if b.Test(key(i)) {
			fp++
		}
	}
	if fp > 10*n*15/1000 {
		t.Fatalf("%d false positives in %d probes", fp, 10*n)
	}
}

func TestStoreWriteReadTile(t *testing.T) {
	st, err := Open(t.TempDir() + "/log")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	leaves, leafHashes, idHashes := tileTestLeaves(4)
	ht, _ := BuildHashTile(0, leafHashes)
	lt := &LeafTile{Tile: 0, Span: 4, Leaves: leaves}
	ix := BuildTileIndex(0, 0, idHashes, leafHashes)
	if err := st.WriteTile(0, EncodeLeafTile(lt), EncodeHashTile(ht), EncodeTileIndex(ix)); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{TileExtLeaf, TileExtHash, TileExtIndex} {
		data, err := st.ReadTile(0, ext)
		if err != nil {
			t.Fatalf("reading %s: %v", ext, err)
		}
		if len(data) == 0 {
			t.Fatalf("empty %s tile", ext)
		}
	}
	got, err := st.ReadTile(0, TileExtHash)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeHashTile(got)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Root() != ht.Root() {
		t.Fatal("tile root changed across store round trip")
	}
	// Reading a tile that does not exist is an error, not sticky failure.
	if _, err := st.ReadTile(99, TileExtLeaf); err == nil {
		t.Fatal("read of missing tile succeeded")
	}
	if err := st.Err(); err != nil {
		t.Fatalf("read failure poisoned the store: %v", err)
	}
}

func TestSnapshotV2TileFields(t *testing.T) {
	_, leafHashes, _ := tileTestLeaves(4)
	ht, _ := BuildHashTile(0, leafHashes)
	snap := &Snapshot{
		Sequenced:    [][]byte{[]byte("\x00\x00tail-leaf")},
		STH:          STHRecord{Timestamp: 9, TreeSize: 5, Sig: []byte{1}},
		WALOffset:    MagicLen,
		TiledThrough: 4,
		TileSpan:     4,
		TileRoots:    [][32]byte{ht.Root()},
	}
	if snap.TreeSize() != 5 {
		t.Fatalf("TreeSize = %d, want 5", snap.TreeSize())
	}
	dec, err := DecodeSnapshot(EncodeSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if dec.TiledThrough != 4 || dec.TileSpan != 4 || len(dec.TileRoots) != 1 || dec.TileRoots[0] != ht.Root() {
		t.Fatal("snapshot tile fields did not round trip")
	}
	if !bytes.Equal(EncodeSnapshot(dec), EncodeSnapshot(snap)) {
		t.Fatal("snapshot encoding is not canonical")
	}

	// Structural validation: misaligned tiled-through, bad span, and a
	// root-count mismatch are all ErrCorrupt.
	for _, mutate := range []func(*Snapshot){
		func(s *Snapshot) { s.TiledThrough = 3 },
		func(s *Snapshot) { s.TileSpan = 3 },
		func(s *Snapshot) { s.TileSpan = 0 },
		func(s *Snapshot) { s.TileRoots = nil },
	} {
		bad := *snap
		mutate(&bad)
		if _, err := DecodeSnapshot(EncodeSnapshot(&bad)); err == nil {
			t.Fatal("structurally invalid snapshot decoded")
		}
	}
}
