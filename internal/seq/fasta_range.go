package seq

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"hash/fnv"
	"io"
	"os"
)

// FileIndex is the cheap metadata pass over a FASTA/FASTQ file: one entry
// per record — byte offset of the record's first line (in the uncompressed
// stream), read length, and name — with no sequence bases materialised.
// It is the paper's stage-1 replicated metadata: every rank may hold it
// (O(n) ints plus names), while sequence payloads stay owner-only.
type FileIndex struct {
	Format  byte // '>' (FASTA) or '@' (FASTQ)
	Gzip    bool // true when the file is gzip-compressed (offsets are uncompressed)
	Offsets []int64
	Lens    []int32
	Names   []string
}

// N returns the record count.
func (ix *FileIndex) N() int { return len(ix.Lens) }

// TotalBytes returns the global wire size of the whole read set — the
// denominator of the per-rank residency assertions.
func (ix *FileIndex) TotalBytes() int64 {
	var n int64
	for _, l := range ix.Lens {
		n += int64(WireSizeOf(int(l)))
	}
	return n
}

// Checksum hashes the record count, lengths and names into one int64.
// Ranks of a distributed job index their input independently; agreeing on
// the checksum (allreduce min == max) is the small collective that
// certifies every rank derived the same global metadata.
func (ix *FileIndex) Checksum() int64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(ix.N()))
	for i, l := range ix.Lens {
		put(uint64(uint32(l)))
		io.WriteString(h, ix.Names[i])
		h.Write([]byte{0})
	}
	return int64(h.Sum64())
}

// offsetScanner is a line scanner that reports the byte offset at which
// the current line starts (offsets follow the uncompressed stream).
type offsetScanner struct {
	sc       *bufio.Scanner
	consumed int64 // bytes consumed by completed lines
	off      int64 // offset of the current line
	line     int   // 1-based line number of the current line
}

func newOffsetScanner(r io.Reader) *offsetScanner {
	s := &offsetScanner{}
	s.sc = bufio.NewScanner(r)
	s.sc.Buffer(make([]byte, 1<<20), 1<<26)
	s.sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		s.consumed += int64(adv)
		return adv, tok, err
	})
	return s
}

func (s *offsetScanner) Scan() bool {
	s.off = s.consumed
	if !s.sc.Scan() {
		return false
	}
	s.line++
	return true
}

func (s *offsetScanner) Bytes() []byte { return s.sc.Bytes() }
func (s *offsetScanner) Err() error    { return s.sc.Err() }

// IndexReader scans one FASTA/FASTQ stream (not gzipped — callers unwrap
// first; IndexFile does) and builds the metadata index. Validation is as
// strict as the full parsers: an input IndexReader accepts, the parsers
// accept, with identical lengths and names.
func IndexReader(r io.Reader) (*FileIndex, error) {
	sc := newOffsetScanner(r)
	// Find the format byte, skipping the same leading blanks as LoadReader
	// (space, tab, CR, LF): other whitespace, such as '\v', is a format
	// byte both reject.
	for sc.Scan() {
		lead := bytes.TrimLeft(sc.Bytes(), " \t\r")
		if len(lead) == 0 {
			continue
		}
		text := bytes.TrimSpace(lead)
		switch lead[0] {
		case '>':
			return indexFASTA(sc, text)
		case '@':
			return indexFASTQ(sc, text)
		default:
			return nil, fmt.Errorf("unrecognised format (starts with %q)", lead[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("empty input")
}

// indexFASTA indexes from the first header line (already scanned, passed
// trimmed as first).
func indexFASTA(sc *offsetScanner, first []byte) (*FileIndex, error) {
	ix := &FileIndex{Format: '>'}
	var bodyLen int32
	open := false
	flush := func() {
		if open {
			ix.Lens = append(ix.Lens, bodyLen)
			bodyLen = 0
		}
	}
	header := func(text []byte, off int64) {
		flush()
		open = true
		ix.Offsets = append(ix.Offsets, off)
		name := firstField(string(text[1:]))
		if name == "" {
			name = fmt.Sprintf("read%d", len(ix.Names))
		}
		ix.Names = append(ix.Names, name)
	}
	header(first, sc.off)
	for sc.Scan() {
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		if text[0] == '>' {
			header(text, sc.off)
			continue
		}
		for i := 0; i < len(text); i++ {
			if _, ok := BaseFromChar(text[i]); !ok {
				return nil, fmt.Errorf("fasta: line %d: invalid character %q", sc.line, text[i])
			}
		}
		bodyLen += int32(len(text))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fasta: %w", err)
	}
	flush()
	return ix, nil
}

// indexFASTQ indexes 4-line FASTQ records from the first header line.
func indexFASTQ(sc *offsetScanner, first []byte) (*FileIndex, error) {
	ix := &FileIndex{Format: '@'}
	hdr, hdrOff := first, sc.off
	next := func() ([]byte, bool) {
		for sc.Scan() {
			t := bytes.TrimSpace(sc.Bytes())
			if len(t) != 0 {
				return t, true
			}
		}
		return nil, false
	}
	for {
		if hdr[0] != '@' {
			return nil, fmt.Errorf("fastq: line %d: expected @header, got %q", sc.line, hdr)
		}
		body, ok := next()
		if !ok {
			return nil, fmt.Errorf("fastq: line %d: truncated record (missing sequence)", sc.line)
		}
		plus, ok := next()
		if !ok || plus[0] != '+' {
			return nil, fmt.Errorf("fastq: line %d: expected + separator", sc.line)
		}
		qual, ok := next()
		if !ok {
			return nil, fmt.Errorf("fastq: line %d: truncated record (missing quality)", sc.line)
		}
		if len(qual) != len(body) {
			return nil, fmt.Errorf("fastq: line %d: quality length %d != sequence length %d", sc.line, len(qual), len(body))
		}
		for i := 0; i < len(body); i++ {
			if _, ok := BaseFromChar(body[i]); !ok {
				return nil, fmt.Errorf("fastq: line %d: invalid character %q", sc.line, body[i])
			}
		}
		ix.Offsets = append(ix.Offsets, hdrOff)
		ix.Lens = append(ix.Lens, int32(len(body)))
		name := firstField(string(hdr[1:]))
		if name == "" {
			name = fmt.Sprintf("read%d", len(ix.Names))
		}
		ix.Names = append(ix.Names, name)
		hdr, ok = next()
		if !ok {
			break
		}
		hdrOff = sc.off
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fastq: %w", err)
	}
	return ix, nil
}

// IndexFile builds the metadata index for a FASTA/FASTQ file, gunzipping
// by magic bytes like LoadFile.
func IndexFile(path string) (*FileIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	gz := false
	var src io.Reader = br
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("seq: %s: %w", path, err)
		}
		defer zr.Close()
		src, gz = zr, true
	}
	ix, err := IndexReader(src)
	if err != nil {
		return nil, fmt.Errorf("seq: %s: %w", path, err)
	}
	ix.Gzip = gz
	return ix, nil
}

// LoadFileRange parses only records [lo, hi) of an indexed file into an
// owner-only SliceStore carrying the global length vector. Plain files
// seek straight to the record boundary (offsets never split a record);
// gzip streams from the start but materialises bases for the owned range
// only, so residency holds either way.
func LoadFileRange(path string, ix *FileIndex, lo, hi int) (*SliceStore, error) {
	if lo < 0 || hi < lo || hi > ix.N() {
		return nil, fmt.Errorf("seq: %s: record range [%d,%d) outside [0,%d)", path, lo, hi, ix.N())
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reads []Read
	if ix.Gzip {
		br := bufio.NewReader(f)
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("seq: %s: %w", path, err)
		}
		defer zr.Close()
		reads, err = parseRange(bufio.NewReader(zr), ix.Format, lo, hi-lo, lo)
		if err != nil {
			return nil, fmt.Errorf("seq: %s: %w", path, err)
		}
	} else {
		off := int64(0)
		if lo < ix.N() {
			off = ix.Offsets[lo]
		}
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			return nil, fmt.Errorf("seq: %s: %w", path, err)
		}
		reads, err = parseRange(bufio.NewReader(f), ix.Format, 0, hi-lo, lo)
		if err != nil {
			return nil, fmt.Errorf("seq: %s: %w", path, err)
		}
	}
	return NewSliceStore(lo, reads, ix.Lens)
}

// parseRange skips `skip` records, then parses `count` records assigning
// IDs from firstID. Skipped records are scanned but not materialised.
func parseRange(r io.Reader, format byte, skip, count, firstID int) ([]Read, error) {
	switch format {
	case '>':
		return parseFASTA(r, skip, count, firstID)
	case '@':
		return parseFASTQ(r, skip, count, firstID)
	default:
		return nil, fmt.Errorf("unrecognised format byte %q", format)
	}
}

// LoadStore is the one-process convenience: load the whole file and wrap
// it as a Store owning everything.
func LoadStore(path string) (Store, error) {
	rs, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	return FullStore(rs), nil
}
