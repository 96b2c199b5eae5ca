// CSR image store: the on-disk tier of the two-tier corpus (DESIGN.md §2.11).
//
// A built Graph's flat arrays (ids/off/data/back/cross) serialize into a
// versioned, checksummed, page-aligned image whose filename is the SHA-256 of
// its CorpusKey — content addressing makes a store directory shareable by a
// fleet of replicas with no coordination: every process that needs
// (family, params, seed) computes the same name, and generators are
// deterministic, so concurrent writers race to produce identical bytes and
// the atomic tmp+rename publish lets whichever finishes first win.
//
// Images load via mmap where the platform supports it (zero-copy: the
// Graph's slices are views into the page cache, so a 10^8-node graph costs
// almost no Go heap), with a portable ReadFile fallback elsewhere. The
// payload is written in native byte order for the zero-copy views; an
// endianness probe in the header rejects images written by a foreign
// architecture, which then simply regenerate.
package graph

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Image format constants. The header occupies one page so the payload starts
// page-aligned — mmap'ed section pointers are then naturally aligned for
// their element types (ids first at an 8-byte boundary, the int32 tables
// after it at 4-byte boundaries).
const (
	imageMagic      = "ULCSRIMG"
	imageVersion    = 1
	imageHeaderSize = 4096
)

// castagnoli is the CRC-32C table; Castagnoli is hardware-accelerated on
// amd64/arm64, which matters when checksumming multi-gigabyte payloads.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// nativeOrderProbe returns a fixed 8-byte pattern laid out in the machine's
// native byte order. Payloads are raw native-order arrays (the point of
// mmap), so a loader must reject images whose probe bytes differ from its
// own.
func nativeOrderProbe() [8]byte {
	v := uint64(0x0102030405060708)
	return *(*[8]byte)(unsafe.Pointer(&v))
}

// imageHeader is the parsed fixed-size header of a CSR image.
type imageHeader struct {
	n          int64
	edges      int64
	maxDeg     int64
	maxID      int64
	payloadLen int64
	payloadCRC uint32
}

// Header byte layout (fields after the magic and probe are little-endian so
// the header itself parses anywhere; only the payload is native-order):
//
//	[0:8)    magic "ULCSRIMG"
//	[8:16)   native-order probe
//	[16:24)  version
//	[24:32)  n
//	[32:40)  edges
//	[40:48)  maxDeg
//	[48:56)  maxID
//	[56:64)  payloadLen
//	[64:68)  payload CRC-32C
//	[68:72)  header CRC-32C over bytes [0:68)
//	[72:4096) zero padding
const (
	hdrOffVersion    = 16
	hdrOffN          = 24
	hdrOffEdges      = 32
	hdrOffMaxDeg     = 40
	hdrOffMaxID      = 48
	hdrOffPayloadLen = 56
	hdrOffPayloadCRC = 64
	hdrOffHeaderCRC  = 68
)

func (h *imageHeader) encode() []byte {
	buf := make([]byte, imageHeaderSize)
	copy(buf, imageMagic)
	probe := nativeOrderProbe()
	copy(buf[8:16], probe[:])
	binary.LittleEndian.PutUint64(buf[hdrOffVersion:], imageVersion)
	binary.LittleEndian.PutUint64(buf[hdrOffN:], uint64(h.n))
	binary.LittleEndian.PutUint64(buf[hdrOffEdges:], uint64(h.edges))
	binary.LittleEndian.PutUint64(buf[hdrOffMaxDeg:], uint64(h.maxDeg))
	binary.LittleEndian.PutUint64(buf[hdrOffMaxID:], uint64(h.maxID))
	binary.LittleEndian.PutUint64(buf[hdrOffPayloadLen:], uint64(h.payloadLen))
	binary.LittleEndian.PutUint32(buf[hdrOffPayloadCRC:], h.payloadCRC)
	binary.LittleEndian.PutUint32(buf[hdrOffHeaderCRC:], crc32.Checksum(buf[:hdrOffHeaderCRC], castagnoli))
	return buf
}

// decodeImageHeader validates a raw header. Any mismatch — magic, version,
// foreign byte order, bad header checksum, nonsensical sizes — returns an
// error; the caller treats every such image as regenerable garbage.
func decodeImageHeader(buf []byte) (imageHeader, error) {
	var h imageHeader
	if len(buf) < imageHeaderSize {
		return h, fmt.Errorf("graph: store: short header (%d bytes)", len(buf))
	}
	if string(buf[:8]) != imageMagic {
		return h, fmt.Errorf("graph: store: bad magic %q", buf[:8])
	}
	probe := nativeOrderProbe()
	if string(buf[8:16]) != string(probe[:]) {
		return h, fmt.Errorf("graph: store: image written with foreign byte order")
	}
	if v := binary.LittleEndian.Uint64(buf[hdrOffVersion:]); v != imageVersion {
		return h, fmt.Errorf("graph: store: unsupported image version %d (want %d)", v, imageVersion)
	}
	if got, want := crc32.Checksum(buf[:hdrOffHeaderCRC], castagnoli), binary.LittleEndian.Uint32(buf[hdrOffHeaderCRC:]); got != want {
		return h, fmt.Errorf("graph: store: header checksum mismatch")
	}
	h.n = int64(binary.LittleEndian.Uint64(buf[hdrOffN:]))
	h.edges = int64(binary.LittleEndian.Uint64(buf[hdrOffEdges:]))
	h.maxDeg = int64(binary.LittleEndian.Uint64(buf[hdrOffMaxDeg:]))
	h.maxID = int64(binary.LittleEndian.Uint64(buf[hdrOffMaxID:]))
	h.payloadLen = int64(binary.LittleEndian.Uint64(buf[hdrOffPayloadLen:]))
	h.payloadCRC = binary.LittleEndian.Uint32(buf[hdrOffPayloadCRC:])
	if h.n < 0 || h.edges < 0 || h.maxDeg < 0 || h.maxID < 0 || h.n > int64(MaxID) {
		return h, fmt.Errorf("graph: store: corrupt header counts (n=%d edges=%d)", h.n, h.edges)
	}
	if want := imagePayloadLen(h.n, h.edges); h.payloadLen != want {
		return h, fmt.Errorf("graph: store: payload length %d does not match counts (want %d)", h.payloadLen, want)
	}
	return h, nil
}

// imagePayloadLen is the exact payload size for a graph with n nodes and m
// undirected edges: ids (8n) + off (4(n+1)) + data/back/cross (4·2m each).
// Every section length is a multiple of 4 and ids leads at a page boundary,
// so all sections are naturally aligned with no padding.
func imagePayloadLen(n, edges int64) int64 {
	return 8*n + 4*(n+1) + 3*4*2*edges
}

// StoreStats is a point-in-time snapshot of a store's disk-tier counters,
// surfaced through CorpusStats into the serving layer's /metrics.
type StoreStats struct {
	// Hits and Misses count Load calls that found a usable image vs not.
	Hits, Misses uint64
	// Written counts images persisted by Save (excluding already-present
	// skips); Corrupt counts images rejected and removed by Load.
	Written, Corrupt uint64
	// BytesWritten totals the image bytes Save wrote; BytesMapped totals the
	// image bytes currently (and historically) mapped via mmap — it is a
	// monotone counter, not a gauge, because unmapping happens lazily at GC.
	BytesWritten, BytesMapped int64
}

// Store is a content-addressed directory of CSR images. All methods are safe
// for concurrent use, including by multiple processes sharing the directory.
type Store struct {
	dir string

	hits, misses, written, corrupt atomic.Uint64
	bytesWritten, bytesMapped      atomic.Int64
}

// OpenStore opens (creating if needed) a CSR image store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("graph: store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("graph: store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Stats returns the store's counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Written:      s.written.Load(),
		Corrupt:      s.corrupt.Load(),
		BytesWritten: s.bytesWritten.Load(),
		BytesMapped:  s.bytesMapped.Load(),
	}
}

// ImageName returns the content-addressed filename for key: the hex SHA-256
// of the versioned key string. Every field participates, so distinct
// families, parameters or seeds can never collide onto one image.
func ImageName(key CorpusKey) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("ulcsr-v%d|%s|%d|%d|%d|%d",
		imageVersion, key.Family, key.A, key.B, key.F, key.Seed)))
	return hex.EncodeToString(sum[:20]) + ".csr"
}

// ImagePath returns the path the image for key lives at (whether or not it
// exists yet).
func (s *Store) ImagePath(key CorpusKey) string {
	return filepath.Join(s.dir, ImageName(key))
}

// Save persists g's CSR image for key, unless one already exists — images
// are content-addressed and generators deterministic, so an existing file is
// already the right bytes. The image is staged in a temp file and published
// by atomic rename, so concurrent writers (other goroutines or other
// processes sharing the directory) never expose a partial image; a crash
// mid-write leaves only a stale .tmp file that a later Save overwrites-by-
// rename or the operator clears.
func (s *Store) Save(key CorpusKey, g *Graph) error {
	path := s.ImagePath(key)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*.csr")
	if err != nil {
		return fmt.Errorf("graph: store: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	// Stream the payload after a placeholder header, checksumming as we go,
	// then seek back and write the real header.
	if _, err := tmp.Write(make([]byte, imageHeaderSize)); err != nil {
		return fmt.Errorf("graph: store: %w", err)
	}
	crc := crc32.New(castagnoli)
	w := bufio.NewWriterSize(io.MultiWriter(tmp, crc), 1<<20)
	for _, sec := range [][]byte{
		int64Bytes(g.ids), int32Bytes(g.off), int32Bytes(g.data),
		int32Bytes(g.back), int32Bytes(g.cross),
	} {
		if _, err := w.Write(sec); err != nil {
			return fmt.Errorf("graph: store: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("graph: store: %w", err)
	}
	h := imageHeader{
		n:          int64(g.N()),
		edges:      int64(g.edges),
		maxDeg:     int64(g.maxDeg),
		maxID:      g.maxID,
		payloadLen: imagePayloadLen(int64(g.N()), int64(g.edges)),
		payloadCRC: crc.Sum32(),
	}
	if _, err := tmp.WriteAt(h.encode(), 0); err != nil {
		return fmt.Errorf("graph: store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("graph: store: %w", err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return fmt.Errorf("graph: store: %w", err)
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("graph: store: %w", err)
	}
	s.written.Add(1)
	s.bytesWritten.Add(imageHeaderSize + h.payloadLen)
	return nil
}

// Load returns the graph for key if a valid image exists. A missing image is
// a plain miss; a truncated, corrupted, foreign-order or wrong-version image
// is counted, removed (so the next Save rewrites it), and reported as a miss
// — the caller falls back to regeneration, never to bad data. The loaded
// graph shares no state with other loads and is immutable like any Graph.
func (s *Store) Load(key CorpusKey) (*Graph, bool) {
	g, err := s.load(s.ImagePath(key))
	if err != nil {
		if !os.IsNotExist(err) {
			s.corrupt.Add(1)
			os.Remove(s.ImagePath(key))
		}
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return g, true
}

func (s *Store) load(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, imageHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, fmt.Errorf("graph: store: reading header: %w", err)
	}
	h, err := decodeImageHeader(hdr)
	if err != nil {
		return nil, err
	}
	if fi.Size() != imageHeaderSize+h.payloadLen {
		return nil, fmt.Errorf("graph: store: truncated image: %d bytes, want %d",
			fi.Size(), imageHeaderSize+h.payloadLen)
	}

	var payload []byte
	var m *mapping
	if mmapSupported {
		raw, err := mmapFile(f, fi.Size())
		if err == nil {
			payload = raw[imageHeaderSize:]
			m = &mapping{data: raw}
			// The mapping outlives this call for as long as the Graph holds
			// it; when the Graph (and thus the mapping) becomes unreachable,
			// the finalizer returns the address space.
			runtime.SetFinalizer(m, (*mapping).unmap)
			s.bytesMapped.Add(fi.Size())
		}
		// mmap failure (e.g. an exotic filesystem) falls through to the read
		// path rather than failing the load.
	}
	if payload == nil {
		// Portable fallback: read the payload into a 64-bit-aligned heap
		// buffer so the zero-copy casts below stay naturally aligned.
		buf := make([]uint64, (h.payloadLen+7)/8)
		payload = unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), h.payloadLen)
		if _, err := io.ReadFull(f, payload); err != nil {
			return nil, fmt.Errorf("graph: store: reading payload: %w", err)
		}
	}
	if got := crc32.Checksum(payload[:h.payloadLen], castagnoli); got != h.payloadCRC {
		if m != nil {
			m.unmap()
		}
		return nil, fmt.Errorf("graph: store: payload checksum mismatch")
	}

	n, w := h.n, 2*h.edges
	ids := bytesInt64(payload[:8*n])
	rest := payload[8*n:]
	off := bytesInt32(rest[:4*(n+1)])
	rest = rest[4*(n+1):]
	data := bytesInt32(rest[:4*w])
	back := bytesInt32(rest[4*w : 8*w])
	cross := bytesInt32(rest[8*w : 12*w])
	return newFromStoredCSR(ids, off, data, back, cross, int(h.maxDeg), int(h.edges), h.maxID, m), nil
}

// ImageInfo describes one image in a store, as listed by Images.
type ImageInfo struct {
	// Name is the content-addressed filename (hash + ".csr").
	Name string
	// Nodes and Edges are the stored graph's counts; Bytes is the full image
	// size on disk including the header page.
	Nodes, Edges, Bytes int64
}

// Images lists the valid CSR images in the store, in directory order.
// Unreadable or invalid files are skipped, not errors — a shared store may
// contain another process's in-flight temp files.
func (s *Store) Images() ([]ImageInfo, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("graph: store: %w", err)
	}
	var out []ImageInfo
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".csr" || e.Name()[0] == '.' {
			continue
		}
		info, err := s.imageInfo(e)
		if err != nil {
			continue
		}
		out = append(out, info)
	}
	return out, nil
}

func (s *Store) imageInfo(e fs.DirEntry) (ImageInfo, error) {
	f, err := os.Open(filepath.Join(s.dir, e.Name()))
	if err != nil {
		return ImageInfo{}, err
	}
	defer f.Close()
	hdr := make([]byte, imageHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return ImageInfo{}, err
	}
	h, err := decodeImageHeader(hdr)
	if err != nil {
		return ImageInfo{}, err
	}
	return ImageInfo{
		Name:  e.Name(),
		Nodes: h.n,
		Edges: h.edges,
		Bytes: imageHeaderSize + h.payloadLen,
	}, nil
}

// mapping retains one mmap'ed image for the lifetime of the Graph viewing
// it. unmap is idempotent: called by the GC finalizer, or eagerly by a load
// that fails after mapping.
type mapping struct {
	data []byte
}

func (m *mapping) unmap() {
	if m.data != nil {
		munmapFile(m.data)
		m.data = nil
	}
}

// Zero-copy reinterpretation between the Graph's typed slices and image
// bytes. Sound because the payload sections are naturally aligned (see
// imagePayloadLen) and int32/int64 have no invalid bit patterns; the probe
// check guarantees native byte order.

func int64Bytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
}

func int32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

func bytesInt64(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func bytesInt32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}
