package slurm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
)

// Chunk is one newline-aligned byte range of a period file's data
// region: it starts at the first byte of a data line and ends just past
// a line terminator (or at end of file), so no row straddles two chunks.
type Chunk struct {
	Off int64 // absolute file offset of the chunk's first byte
	Len int64 // byte length
}

// ChunkScanner plans a parallel decode of one sacct period file. The
// header is read and resolved once; the data region is split into at
// most n chunks of roughly equal size whose boundaries are advanced to
// the next newline, so every chunk is a whole number of rows and the
// chunk decoders can run independently. Files smaller than one row per
// requested chunk simply yield fewer chunks.
type ChunkScanner struct {
	path   string
	fields []*Field
	names  []string
	chunks []Chunk
}

// scanBuf sizes the two buffers a plan reads with: the one the header
// line is read through (a real header is about 600 bytes) and the one
// that looks for the newline after a candidate chunk boundary. Each
// grows only for a longer line, the second up to scanBufMax.
const (
	scanBuf    = 4 << 10
	scanBufMax = 64 << 10
)

// NewChunkScanner resolves path's header and plans up to n newline-
// aligned chunks over its data region. An empty input or a header
// naming an unknown field is an error, exactly as in NewByteRecordReader.
func NewChunkScanner(path string, n int) (*ChunkScanner, error) {
	if n < 1 {
		n = 1
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()

	header, headerLen, err := readHeaderLine(f)
	if err != nil {
		return nil, err
	}
	fields, names, err := resolveHeader(header)
	if err != nil {
		return nil, err
	}

	cs := &ChunkScanner{path: path, fields: fields, names: names}
	dataStart := headerLen
	if dataStart >= size {
		return cs, nil // header only: zero chunks
	}
	target := (size - dataStart + int64(n) - 1) / int64(n)
	prev := dataStart
	for prev < size {
		end := prev + target
		if end >= size {
			end = size
		} else {
			end, err = nextLineStart(f, end, size)
			if err != nil {
				return nil, err
			}
		}
		if end > prev {
			cs.chunks = append(cs.chunks, Chunk{Off: prev, Len: end - prev})
		}
		prev = end
	}
	return cs, nil
}

// readHeaderLine reads the first line of f under the row cap, returning
// its text (without the terminator) and the file offset of the first
// data byte.
func readHeaderLine(f *os.File) (string, int64, error) {
	lr := lineReader{r: bufio.NewReaderSize(f, scanBuf)}
	line, err := lr.next()
	if err == io.EOF {
		return "", 0, fmt.Errorf("slurm: input has no header")
	}
	if err != nil {
		return "", 0, err
	}
	return string(trimEOL(trimEOL(line, '\n'), '\r')), int64(len(line)), nil
}

// nextLineStart returns the offset of the first byte after the next
// '\n' at or beyond off, or size when no newline remains. Its buffer
// starts at scanBuf and doubles, up to scanBufMax, while a line outruns
// it.
func nextLineStart(f *os.File, off, size int64) (int64, error) {
	buf := make([]byte, scanBuf)
	for off < size {
		n, err := f.ReadAt(buf, off)
		if n > 0 {
			if i := bytes.IndexByte(buf[:n], '\n'); i >= 0 {
				return off + int64(i) + 1, nil
			}
			off += int64(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if len(buf) < scanBufMax {
			buf = make([]byte, 2*len(buf))
		}
	}
	return size, nil
}

// Fields returns the header's field names in column order. The slice is
// owned by the scanner; callers must not modify it.
func (cs *ChunkScanner) Fields() []string { return cs.names }

// NumChunks returns how many chunks the plan produced.
func (cs *ChunkScanner) NumChunks() int { return len(cs.chunks) }

// Open returns a decoder over chunk i, plus the file handle to close
// when done. Chunk 0 starts right after the header, so the line numbers
// in its errors are the file's; interior chunks report chunk-relative
// line numbers.
func (cs *ChunkScanner) Open(i int) (*ByteRecordReader, io.Closer, error) {
	f, err := os.Open(cs.path)
	if err != nil {
		return nil, nil, err
	}
	c := cs.chunks[i]
	base := 0
	if i == 0 {
		base = 1 // the header line precedes chunk 0
	}
	sec := io.NewSectionReader(f, c.Off, c.Len)
	return newByteRecordReader(bufio.NewReaderSize(sec, 1<<16), cs.fields, cs.names, base), f, nil
}
