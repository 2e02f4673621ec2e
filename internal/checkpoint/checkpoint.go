// Package checkpoint implements crash-safe, versioned training
// checkpoints: atomic writes (temp file + fsync + rename + directory
// fsync), keep-last-N retention, and corruption detection on load with
// automatic fallback to the newest intact checkpoint. Together with the
// resumable training state in internal/nn (optimizer moments plus the
// serialized minibatch-shuffle generator), a preempted or crashed
// trainer resumes bit-identically instead of losing hundreds of epochs
// — the failure mode the paper's in-situ deployment (training shares a
// node with the simulation) makes routine.
//
// On-disk format of one checkpoint file (ckpt-<epoch>.fvcp), every
// integer little-endian:
//
//	magic "FVCP" | version byte (2) | uint64 body length | body | CRC-32C of body
//	body: uint64 epoch | uint64 config hash | int64 unix seconds | payload
//
// The payload is opaque bytes; internal/core writes the model format
// followed by the network's training state (nn.Network.MarshalState).
// Any truncation, bit rot, or torn write fails the length or checksum
// test and LoadLatest falls back to the previous file, as it does for a
// file of another version (version 1 bodies were gob); a crash between
// temp-file creation and rename leaves only a stale temp file, which is
// ignored by loads and swept by the next manager.
//
// A directory is owned by a single training run; concurrent writers are
// not supported (the retention sweep would race).
package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"fillvoid/internal/telemetry"
)

var (
	magic = [4]byte{'F', 'V', 'C', 'P'}
	// castagnoli is hardware-accelerated on amd64/arm64.
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

const (
	formatVersion = 2
	headerLen     = 13 // magic, version byte, body length
	metaLen       = 24 // epoch, config hash, unix seconds
	tmpPattern    = ".tmp-ckpt-*"
	suffix        = ".fvcp"
	prefix        = "ckpt-"
)

// ErrNoCheckpoint is returned by LoadLatest when the directory holds no
// intact checkpoint.
var ErrNoCheckpoint = errors.New("checkpoint: no usable checkpoint found")

// unixNow is the default Config.Now.
func unixNow() int64 { return time.Now().Unix() }

// Meta is the checkpoint header: enough to decide resumability without
// decoding the payload.
type Meta struct {
	// Epoch is the number of lifetime training epochs completed at save
	// time; it orders checkpoints and names the file.
	Epoch int
	// ConfigHash fingerprints the training configuration (options, field,
	// grid geometry, seed). A resume against a different configuration is
	// detected and refused by the caller.
	ConfigHash uint64
	// Unix is the save wall-clock time in seconds (informational).
	Unix int64
}

// Config configures a Manager.
type Config struct {
	// Dir is the checkpoint directory (created if missing). Required.
	Dir string
	// Keep is the retention depth: after each successful save, only the
	// Keep newest checkpoints remain (default 3, minimum 1). Keeping
	// more than one is what makes corrupted-latest fallback possible.
	Keep int
	// FS overrides the filesystem (default OS()); tests inject faults
	// through it.
	FS FS
	// Telemetry receives save/load/fallback counters and spans
	// (default: the process-global registry).
	Telemetry *telemetry.Registry
	// Now supplies save timestamps (default time.Now); tests pin it.
	Now func() int64
}

// Manager reads and writes checkpoints in one directory.
type Manager struct {
	dir  string
	keep int
	fs   FS
	tel  *telemetry.Registry
	now  func() int64
}

// NewManager validates cfg, creates the directory, and sweeps stale
// temp files left by a previous crash-after-temp.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, errors.New("checkpoint: Config.Dir is required")
	}
	if cfg.Keep <= 0 {
		cfg.Keep = 3
	}
	if cfg.FS == nil {
		cfg.FS = OS()
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.Default()
	}
	if cfg.Now == nil {
		cfg.Now = unixNow
	}
	m := &Manager{dir: cfg.Dir, keep: cfg.Keep, fs: cfg.FS, tel: cfg.Telemetry, now: cfg.Now}
	if err := m.fs.MkdirAll(m.dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating %s: %w", m.dir, err)
	}
	m.sweepTemps()
	return m, nil
}

// Dir returns the managed directory.
func (m *Manager) Dir() string { return m.dir }

// sweepTemps removes temp files abandoned by a crash between temp-file
// write and rename. Best effort: a failure here never blocks a run.
func (m *Manager) sweepTemps() {
	entries, err := m.fs.ReadDir(m.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), ".tmp-ckpt-") {
			if m.fs.Remove(filepath.Join(m.dir, e.Name())) == nil {
				m.tel.Counter("checkpoint.temps_swept").Inc()
			}
		}
	}
}

// fileName returns the published name for an epoch.
func fileName(epoch int) string { return fmt.Sprintf("%s%010d%s", prefix, epoch, suffix) }

// parseEpoch extracts the epoch from a published checkpoint file name,
// or -1 when the name is not a checkpoint.
func parseEpoch(name string) int {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return -1
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if digits == "" {
		return -1
	}
	epoch := 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return -1
		}
		epoch = epoch*10 + int(c-'0')
	}
	return epoch
}

// Save atomically writes a checkpoint for meta.Epoch whose payload is
// the concatenation of chunks, through WriteFile, then prunes beyond
// the retention depth. A failure at any step leaves previously
// published checkpoints untouched and returns the error.
func (m *Manager) Save(meta Meta, payload ...[]byte) (path string, err error) {
	_, sp := m.tel.Start(context.TODO(), "checkpoint/save")
	defer sp.End()
	defer func() {
		if err != nil {
			m.tel.Counter("checkpoint.save_errors").Inc()
		}
	}()

	if meta.Unix == 0 {
		meta.Unix = m.now()
	}
	le := binary.LittleEndian
	body := le.AppendUint64(nil, uint64(meta.Epoch))
	body = le.AppendUint64(body, meta.ConfigHash)
	body = le.AppendUint64(body, uint64(meta.Unix))
	bodyLen := len(body)
	sum := crc32.Checksum(body, castagnoli)
	for _, p := range payload {
		bodyLen += len(p)
		sum = crc32.Update(sum, castagnoli, p)
	}
	hdr := append(append([]byte{}, magic[:]...), formatVersion)
	hdr = le.AppendUint64(hdr, uint64(bodyLen))
	chunks := append([][]byte{hdr, body}, payload...)
	chunks = append(chunks, le.AppendUint32(nil, sum))

	final := filepath.Join(m.dir, fileName(meta.Epoch))
	if err := WriteFile(m.fs, final, tmpPattern, chunks...); err != nil {
		return "", err
	}
	m.tel.Counter("checkpoint.saves").Inc()
	m.tel.Counter("checkpoint.save_bytes").Add(int64(headerLen + bodyLen + 4))
	m.prune()
	telemetry.Debugf("checkpoint saved", "path", final, "epoch", meta.Epoch)
	return final, nil
}

// prune removes published checkpoints beyond the retention depth.
func (m *Manager) prune() {
	epochs, err := m.epochs()
	if err != nil || len(epochs) <= m.keep {
		return
	}
	for _, epoch := range epochs[:len(epochs)-m.keep] {
		if m.fs.Remove(filepath.Join(m.dir, fileName(epoch))) == nil {
			m.tel.Counter("checkpoint.pruned").Inc()
		}
	}
}

// epochs lists published checkpoint epochs, ascending.
func (m *Manager) epochs() ([]int, error) {
	entries, err := m.fs.ReadDir(m.dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if epoch := parseEpoch(e.Name()); epoch >= 0 {
			out = append(out, epoch)
		}
	}
	sort.Ints(out)
	return out, nil
}

// List returns the metadata of every intact checkpoint, oldest first.
// Corrupt files are skipped (counted, not removed).
func (m *Manager) List() ([]Meta, error) {
	epochs, err := m.epochs()
	if err != nil {
		return nil, err
	}
	var out []Meta
	for _, epoch := range epochs {
		meta, _, err := m.read(epoch)
		if err != nil {
			m.tel.Counter("checkpoint.corrupt_skipped").Inc()
			continue
		}
		out = append(out, meta)
	}
	return out, nil
}

// LoadLatest returns the metadata and payload of the newest intact
// checkpoint. A corrupt or torn newest file is skipped — with a
// telemetry fallback count and a warning log — and the next-newest
// tried, which is the crash-recovery guarantee: a write interrupted at
// any byte can cost at most the epochs since the previous checkpoint.
// ErrNoCheckpoint means a fresh start.
func (m *Manager) LoadLatest() (Meta, []byte, error) {
	_, sp := m.tel.Start(context.TODO(), "checkpoint/load")
	defer sp.End()
	epochs, err := m.epochs()
	if err != nil {
		return Meta{}, nil, fmt.Errorf("checkpoint: listing %s: %w", m.dir, err)
	}
	for i := len(epochs) - 1; i >= 0; i-- {
		meta, payload, err := m.read(epochs[i])
		if err != nil {
			m.tel.Counter("checkpoint.fallbacks").Inc()
			telemetry.Warnf("checkpoint unreadable, falling back",
				"path", filepath.Join(m.dir, fileName(epochs[i])), "err", err)
			continue
		}
		m.tel.Counter("checkpoint.loads").Inc()
		telemetry.Infof("checkpoint loaded", "dir", m.dir, "epoch", meta.Epoch)
		return meta, payload, nil
	}
	return Meta{}, nil, ErrNoCheckpoint
}

// read loads and integrity-checks one checkpoint file, returning its
// meta and payload bytes.
func (m *Manager) read(epoch int) (Meta, []byte, error) {
	path := filepath.Join(m.dir, fileName(epoch))
	data, err := m.fs.ReadFile(path)
	if err != nil {
		return Meta{}, nil, err
	}
	if len(data) < headerLen+metaLen+4 {
		return Meta{}, nil, fmt.Errorf("checkpoint: %s truncated (%d bytes)", path, len(data))
	}
	if !bytes.Equal(data[:4], magic[:]) {
		return Meta{}, nil, fmt.Errorf("checkpoint: %s has bad magic", path)
	}
	if data[4] != formatVersion {
		return Meta{}, nil, fmt.Errorf("checkpoint: %s has unsupported version %d", path, data[4])
	}
	le := binary.LittleEndian
	bodyLen := le.Uint64(data[5:headerLen])
	if bodyLen != uint64(len(data)-headerLen-4) {
		return Meta{}, nil, fmt.Errorf("checkpoint: %s length mismatch (header %d, actual %d)",
			path, bodyLen, len(data)-headerLen-4)
	}
	body := data[headerLen : headerLen+bodyLen]
	if got := crc32.Checksum(body, castagnoli); got != le.Uint32(data[headerLen+bodyLen:]) {
		return Meta{}, nil, fmt.Errorf("checkpoint: %s checksum mismatch", path)
	}
	meta := Meta{Epoch: int(le.Uint64(body)), ConfigHash: le.Uint64(body[8:]), Unix: int64(le.Uint64(body[16:]))}
	if meta.Epoch != epoch {
		return Meta{}, nil, fmt.Errorf("checkpoint: %s epoch mismatch (header %d, name %d)",
			path, meta.Epoch, epoch)
	}
	return meta, body[metaLen:], nil
}
