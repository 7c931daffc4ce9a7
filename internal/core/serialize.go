package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"resemble/internal/flatmap"
	"resemble/internal/nn"
)

// Model persistence, mirroring the paper artifact's saved models (its
// demo stores the trained MLP/table as .pkl files). The MLP controller
// saves its target network (the inference network); the tabular
// controller saves the token map and Q-rows.

// SaveModel writes the controller's inference network.
func (c *Controller) SaveModel(w io.Writer) error {
	return c.target.Save(w)
}

// LoadModel replaces both networks with a previously saved snapshot.
// The snapshot must match the controller's architecture.
func (c *Controller) LoadModel(r io.Reader) error {
	m, err := nn.LoadMLP(r)
	if err != nil {
		return err
	}
	want := c.target.Sizes()
	got := m.Sizes()
	match := len(got) == len(want)
	for i := 0; match && i < len(want); i++ {
		match = got[i] == want[i]
	}
	if !match {
		return fmt.Errorf("core: model architecture %v, controller needs %v", got, want)
	}
	c.target.CopyWeightsFrom(m)
	c.policy.CopyWeightsFrom(m)
	return nil
}

// Q-table snapshot format (little-endian):
//
//	magic   [8]byte "RSMTAB01"
//	actions uint32
//	rows    uint32
//	rows × { key uint64, actions × float64 }
//
// Rows are written in token order, so equal tables give equal bytes.

var tabMagic = [8]byte{'R', 'S', 'M', 'T', 'A', 'B', '0', '1'}

// ErrBadTable is returned when decoding a stream that is not a Q-table
// snapshot.
var ErrBadTable = errors.New("core: bad table magic")

// SaveModel writes the tokenized Q-table.
func (c *TabularController) SaveModel(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(tabMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(c.NumActions())); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(c.keys))); err != nil {
		return err
	}
	for tok, key := range c.keys {
		if err := binary.Write(bw, binary.LittleEndian, key); err != nil {
			return err
		}
		for _, q := range c.row(tok) {
			if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(q)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadModel replaces the Q-table with a previously saved snapshot. The
// stream is fully decoded and validated before any controller state is
// touched, so a truncated or corrupt snapshot leaves the controller
// exactly as it was.
func (c *TabularController) LoadModel(r io.Reader) error {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("core: reading table magic: %w", err)
	}
	if magic != tabMagic {
		return ErrBadTable
	}
	var actions, rows uint32
	if err := binary.Read(br, binary.LittleEndian, &actions); err != nil {
		return fmt.Errorf("core: reading table header: %w", noEOF(err))
	}
	if int(actions) != c.NumActions() {
		return fmt.Errorf("core: table has %d actions, controller needs %d", actions, c.NumActions())
	}
	if err := binary.Read(br, binary.LittleEndian, &rows); err != nil {
		return fmt.Errorf("core: reading table header: %w", noEOF(err))
	}
	if rows > 1<<26 {
		return fmt.Errorf("core: unreasonable row count %d", rows)
	}
	// Stage: decode everything into locals first. Row i becomes token i.
	hint := min(int(rows), 1<<16)
	tokens := flatmap.New(hint)
	keys := make([]uint64, 0, hint)
	q := make([]float64, 0, hint*int(actions))
	for i := uint32(0); i < rows; i++ {
		var key uint64
		if err := binary.Read(br, binary.LittleEndian, &key); err != nil {
			return fmt.Errorf("core: reading table row %d: %w", i, noEOF(err))
		}
		if key == flatmap.Reserved {
			return fmt.Errorf("core: table row %d: reserved key %#x", i, key)
		}
		if _, dup := tokens.Swap(key, uint64(i)); dup {
			return fmt.Errorf("core: table row %d: duplicate key %#x", i, key)
		}
		keys = append(keys, key)
		for j := uint32(0); j < actions; j++ {
			var bits uint64
			if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
				return fmt.Errorf("core: reading table row %d: %w", i, noEOF(err))
			}
			q = append(q, math.Float64frombits(bits))
		}
	}
	// Install only after the whole snapshot decoded cleanly.
	c.tokens = tokens
	c.keys = keys
	c.q = q
	return nil
}

// noEOF maps a clean EOF inside a structure to ErrUnexpectedEOF: once
// past the magic the stream ending early is always a truncation.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
