package serve

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/region"
	"ocpmesh/internal/status"
)

// TenantConfig is the JSON form of one tenant's mesh and engine
// configuration. The zero value of every field but Width/Height selects
// the defaults: bounded mesh, Definition 2b, 8-connected grouping,
// bitset engine.
type TenantConfig struct {
	Width  int  `json:"width"`
	Height int  `json:"height"`
	Torus  bool `json:"torus,omitempty"`
	// Safety is "2a" or "2b" (default "2b").
	Safety string `json:"safety,omitempty"`
	// Connectivity is 4 or 8 (default 8).
	Connectivity int `json:"connectivity,omitempty"`
	// Engine is "sequential", "channels", "parallel" or "bitset"
	// (default "bitset"). Sessions run every formation and delta on the
	// bitset engine, so the name only selects core.Config.Engine;
	// "parallel" is accepted for older snapshots and maps to "bitset".
	Engine string `json:"engine,omitempty"`
	// Workers is a no-op, accepted so older snapshots and clients that
	// still send it decode under strict JSON.
	Workers int `json:"workers,omitempty"`
}

// CoreConfig maps the JSON form onto a core.Config, validating every
// enum.
func (c TenantConfig) CoreConfig() (core.Config, error) {
	cfg := core.Config{Width: c.Width, Height: c.Height}
	if c.Width < 1 || c.Height < 1 {
		return cfg, fmt.Errorf("%w: mesh %dx%d (want positive dimensions)", ErrBadDelta, c.Width, c.Height)
	}
	if c.Torus {
		cfg.Kind = mesh.Torus2D
	}
	switch c.Safety {
	case "", "2b", "def2b":
		cfg.Safety = status.Def2b
	case "2a", "def2a":
		cfg.Safety = status.Def2a
	default:
		return cfg, fmt.Errorf("%w: safety %q (want 2a or 2b)", ErrBadDelta, c.Safety)
	}
	switch c.Connectivity {
	case 0, 8:
		cfg.Connectivity = region.Conn8
	case 4:
		cfg.Connectivity = region.Conn4
	default:
		return cfg, fmt.Errorf("%w: connectivity %d (want 4 or 8)", ErrBadDelta, c.Connectivity)
	}
	switch c.Engine {
	case "", "bitset", "parallel":
		cfg.Engine = core.EngineBitset
	case "sequential":
		cfg.Engine = core.EngineSequential
	case "channels":
		cfg.Engine = core.EngineChannels
	default:
		return cfg, fmt.Errorf("%w: engine %q (want sequential, channels, parallel, or bitset)", ErrBadDelta, c.Engine)
	}
	return cfg, nil
}

// checkSize rejects a mesh of more than maxNodes nodes with ErrTooLarge.
// It divides instead of multiplying, so dimensions whose product
// overflows int are rejected too. cfg must have positive dimensions
// (CoreConfig checks them).
func checkSize(cfg core.Config, maxNodes int) error {
	if cfg.Width > maxNodes/cfg.Height {
		return fmt.Errorf("%w: %dx%d > %d nodes", ErrTooLarge, cfg.Width, cfg.Height, maxNodes)
	}
	return nil
}

// TenantSnapshot is the serialized state of one tenant: the config, the
// fault set, and both fixpoint label planes packed 64 labels per uint64
// word (the BitGrid layout), base64 over little-endian words. Restoring
// adopts the planes without re-running the formation; a checksum over
// the packed planes and fault list catches corrupted or hand-edited
// snapshots before they can serve wrong labels.
type TenantSnapshot struct {
	Version int          `json:"version"`
	ID      string       `json:"id"`
	Config  TenantConfig `json:"config"`
	// Seq is the tenant's delta sequence at snapshot time; a restored
	// tenant resumes from it.
	Seq uint64 `json:"seq"`
	// Faults is the fault set as [x, y] pairs, row-major sorted so the
	// encoding is deterministic.
	Faults [][2]int `json:"faults"`
	// Unsafe and Enabled are the packed label planes.
	Unsafe  string `json:"unsafe_words"`
	Enabled string `json:"enabled_words"`
	// Checksum is FNV-64a over the packed planes and sorted faults.
	Checksum string `json:"checksum"`
}

// snapshotVersion is the serialization format version.
const snapshotVersion = 1

// TakeSnapshot serializes the tenant's current published state.
func (t *Tenant) TakeSnapshot() *TenantSnapshot { return t.serialize(t.Snapshot()) }

// serialize encodes one published snapshot of the tenant. The planes
// are the frame's own words, base64'd with no repacking.
func (t *Tenant) serialize(snap *Snapshot) *TenantSnapshot {
	fr := snap.Frame
	faults := make([][2]int, len(fr.Faults))
	for i, p := range fr.Faults {
		faults[i] = [2]int{p.X, p.Y}
	}
	ts := &TenantSnapshot{
		Version: snapshotVersion,
		ID:      t.id,
		Config:  t.tcfg,
		Seq:     snap.Seq,
		Faults:  faults,
		Unsafe:  encodeWords(fr.UnsafeWords()),
		Enabled: encodeWords(fr.EnabledWords()),
	}
	ts.Checksum = ts.checksum()
	return ts
}

// RestoreSession rebuilds the snapshot's session without re-running the
// formation (core.RestoreSession adopts the label planes directly).
func (ts *TenantSnapshot) RestoreSession(maxNodes int) (*core.Session, core.Config, error) {
	cfg, err := ts.Config.CoreConfig()
	if err != nil {
		return nil, cfg, err
	}
	if ts.Version != snapshotVersion {
		return nil, cfg, fmt.Errorf("%w: snapshot version %d (want %d)", ErrBadDelta, ts.Version, snapshotVersion)
	}
	if err := checkSize(cfg, maxNodes); err != nil {
		return nil, cfg, err
	}
	if got, want := ts.checksum(), ts.Checksum; got != want {
		return nil, cfg, fmt.Errorf("%w: snapshot checksum %s, computed %s", ErrBadDelta, want, got)
	}
	topo, err := mesh.New(cfg.Width, cfg.Height, cfg.Kind)
	if err != nil {
		return nil, cfg, err
	}
	faults := grid.NewPointSetCap(len(ts.Faults))
	for _, f := range ts.Faults {
		p := grid.Pt(f[0], f[1])
		if !topo.Contains(p) {
			return nil, cfg, fmt.Errorf("%w: fault %v outside %v", ErrBadDelta, p, topo)
		}
		faults.Add(p)
	}
	unsafe, err := unpackPlane(topo, ts.Unsafe)
	if err != nil {
		return nil, cfg, fmt.Errorf("%w: unsafe plane: %v", ErrBadDelta, err)
	}
	enabled, err := unpackPlane(topo, ts.Enabled)
	if err != nil {
		return nil, cfg, fmt.Errorf("%w: enabled plane: %v", ErrBadDelta, err)
	}
	session, err := core.RestoreSession(cfg, topo, faults, unsafe, enabled)
	if err != nil {
		// The planes contradict the fault set: a bad document, not a
		// server fault.
		return nil, cfg, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	return session, cfg, nil
}

// checksum hashes the packed planes and the sorted fault list. The
// faults are re-sorted defensively: the checksum must not depend on the
// order a hand-assembled snapshot happened to list them in.
func (ts *TenantSnapshot) checksum() string {
	faults := append([][2]int(nil), ts.Faults...)
	sort.Slice(faults, func(i, j int) bool {
		if faults[i][1] != faults[j][1] {
			return faults[i][1] < faults[j][1]
		}
		return faults[i][0] < faults[j][0]
	})
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(faults)))
	_, _ = h.Write(buf[:])
	for _, f := range faults {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(f[0])))
		_, _ = h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(f[1])))
		_, _ = h.Write(buf[:])
	}
	_, _ = h.Write([]byte(ts.Unsafe))
	_, _ = h.Write([]byte(ts.Enabled))
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

// encodeWords encodes a packed plane, given as consecutive word chunks
// (core.Frame.UnsafeWords), little-endian base64.
func encodeWords(chunks [][]uint64) string { return string(appendWords(nil, chunks)) }

// wordBlock is how many words appendWords packs per base64 call: a
// multiple of 3, so every block but the last encodes without padding.
const wordBlock = 3 * 64

// appendWords appends the little-endian base64 (std, padded) encoding
// of a packed plane's words to dst: blocks of raw bytes staged on the
// stack and encoded straight into dst, with no intermediate string.
func appendWords(dst []byte, chunks [][]uint64) []byte {
	n := 0
	for _, chunk := range chunks {
		n += len(chunk)
	}
	dst = slices.Grow(dst, base64.StdEncoding.EncodedLen(8*n))
	var raw [8 * wordBlock]byte
	k := 0
	for _, chunk := range chunks {
		for _, w := range chunk {
			binary.LittleEndian.PutUint64(raw[k:], w)
			if k += 8; k == len(raw) {
				dst = base64.StdEncoding.AppendEncode(dst, raw[:])
				k = 0
			}
		}
	}
	return base64.StdEncoding.AppendEncode(dst, raw[:k])
}

// unpackPlane is the inverse of encodeWords: it decodes the wire words
// straight into a plane, validating the exact word count and the
// padding-bits-zero invariant.
func unpackPlane(topo *mesh.Topology, s string) (*grid.BitGrid, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, err
	}
	bg := grid.NewBitGrid(topo.Width(), topo.Height())
	words := bg.Words()
	if len(raw) != 8*len(words) {
		return nil, fmt.Errorf("plane is %d bytes, want %d", len(raw), 8*len(words))
	}
	for i := range words {
		w := binary.LittleEndian.Uint64(raw[8*i:])
		if w&^bg.WordMask(i%bg.WordsPerRow()) != 0 {
			return nil, fmt.Errorf("word %d has padding bits set", i)
		}
		words[i] = w
	}
	return bg, nil
}
