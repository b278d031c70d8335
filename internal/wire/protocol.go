// Package wire implements a compact length-prefixed TCP protocol for
// remote access to an engine, plus a client that satisfies the driver
// interfaces. It demonstrates the benchmark's portability claim: the
// workload code is identical whether the target engine is in-process or
// across a socket.
//
// Frame format (all integers little-endian):
//
//	request:  u32 length | 1 byte op ('Q' query, 'X' exec) | SQL text
//	response: u32 length | 1 byte op, then:
//	  '!' error        : UTF-8 message
//	  'A' exec result  : u32 affected-row count
//	  'R' query result : u16 column count, per column u16 len + name,
//	                     u32 row count, per row u32 len + tuple encoding
//	                     (storage.EncodeTuple)
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"jackpine/internal/storage"
)

// Protocol op codes.
const (
	opQuery = 'Q'
	opExec  = 'X'
	opError = '!'
	opAck   = 'A'
	opRows  = 'R'
)

// maxFrame bounds a single protocol frame (64 MiB).
const maxFrame = 64 << 20

// writeFrame sends one op + payload frame. On a network connection the
// header and payload go out in one vectored write, so a peer that has
// already answered and closed (an over-limit rejection) resets the
// connection only after the whole request is sent, and the answer
// stays readable.
func writeFrame(w io.Writer, op byte, payload []byte) error {
	hdr := make([]byte, 5)
	binary.LittleEndian.PutUint32(hdr, uint32(len(payload)+1))
	hdr[4] = op
	bufs := net.Buffers{hdr, payload}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one frame, returning its op and payload.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return 0, nil, fmt.Errorf("wire: bad frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// encodeRows serializes a result set payload.
func encodeRows(cols []string, rows [][]storage.Value) []byte {
	out := make([]byte, 0, 256)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(cols)))
	for _, c := range cols {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(c)))
		out = append(out, c...)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(rows)))
	for _, row := range rows {
		tuple := storage.EncodeTuple(row)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(tuple)))
		out = append(out, tuple...)
	}
	return out
}

// decodeRows parses a result set payload.
func decodeRows(payload []byte) ([]string, [][]storage.Value, error) {
	pos := 0
	need := func(n int) error {
		if pos+n > len(payload) {
			return fmt.Errorf("wire: truncated result payload")
		}
		return nil
	}
	if err := need(2); err != nil {
		return nil, nil, err
	}
	nCols := int(binary.LittleEndian.Uint16(payload[pos:]))
	pos += 2
	cols := make([]string, nCols)
	for i := range cols {
		if err := need(2); err != nil {
			return nil, nil, err
		}
		l := int(binary.LittleEndian.Uint16(payload[pos:]))
		pos += 2
		if err := need(l); err != nil {
			return nil, nil, err
		}
		cols[i] = string(payload[pos : pos+l])
		pos += l
	}
	if err := need(4); err != nil {
		return nil, nil, err
	}
	nRows := int(binary.LittleEndian.Uint32(payload[pos:]))
	pos += 4
	// Every row needs at least its 4-byte length prefix, so a count
	// claiming more rows than the remaining bytes could hold is corrupt;
	// checking before the preallocation keeps a hostile header from
	// forcing a huge up-front allocation.
	if nRows > (len(payload)-pos)/4 {
		return nil, nil, fmt.Errorf("wire: row count %d exceeds payload", nRows)
	}
	rows := make([][]storage.Value, 0, nRows)
	for i := 0; i < nRows; i++ {
		if err := need(4); err != nil {
			return nil, nil, err
		}
		l := int(binary.LittleEndian.Uint32(payload[pos:]))
		pos += 4
		if err := need(l); err != nil {
			return nil, nil, err
		}
		row, err := storage.DecodeTuple(payload[pos:pos+l], nCols)
		if err != nil {
			return nil, nil, fmt.Errorf("wire: row %d: %w", i, err)
		}
		pos += l
		rows = append(rows, row)
	}
	if pos != len(payload) {
		return nil, nil, fmt.Errorf("wire: %d trailing bytes in result payload", len(payload)-pos)
	}
	return cols, rows, nil
}
