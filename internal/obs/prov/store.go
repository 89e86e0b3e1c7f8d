package prov

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Store persists provenance streams as per-key binary sidecar files in
// one directory, alongside (not inside) the farm's outcome store: the
// outcome store answers "what happened", the sidecars answer "why".
// Writes are atomic (temp file + rename) so a crashed run never leaves
// a truncated stream behind.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a sidecar directory.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("prov: store dir must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("prov: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the sidecar directory.
func (s *Store) Dir() string { return s.dir }

const sidecarExt = ".prov"

// path validates a key (farm spec keys are hex; anything
// filesystem-hostile is rejected) and returns its sidecar path.
func (s *Store) path(key string) (string, error) {
	if key == "" || len(key) > 128 {
		return "", fmt.Errorf("prov: bad store key %q", key)
	}
	for _, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return "", fmt.Errorf("prov: bad store key %q", key)
		}
	}
	if strings.HasPrefix(key, ".") {
		return "", fmt.Errorf("prov: bad store key %q", key)
	}
	return filepath.Join(s.dir, key+sidecarExt), nil
}

// Save writes key's stream atomically, replacing any previous version.
func (s *Store) Save(key string, st *Stream) error {
	path, err := s.path(key)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-prov-*")
	if err != nil {
		return fmt.Errorf("prov: save %s: %w", key, err)
	}
	defer os.Remove(tmp.Name())
	if err := EncodeBinary(tmp, st); err != nil {
		tmp.Close()
		return fmt.Errorf("prov: save %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("prov: save %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("prov: save %s: %w", key, err)
	}
	return nil
}

// Load reads key's stream. The boolean is false when no sidecar exists.
func (s *Store) Load(key string) (*Stream, bool, error) {
	path, err := s.path(key)
	if err != nil {
		return nil, false, err
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("prov: load %s: %w", key, err)
	}
	defer f.Close()
	st, err := DecodeBinary(f)
	if err != nil {
		return nil, false, fmt.Errorf("prov: load %s: %w", key, err)
	}
	return st, true, nil
}

// Keys lists every stored key, sorted.
func (s *Store) Keys() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("prov: list store: %w", err)
	}
	var keys []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, sidecarExt) || strings.HasPrefix(name, ".") {
			continue
		}
		keys = append(keys, strings.TrimSuffix(name, sidecarExt))
	}
	sort.Strings(keys)
	return keys, nil
}

// ErrNoStream reports a key that names no stored stream.
var ErrNoStream = errors.New("prov: no stored stream")

// ErrAmbiguousKey reports a key prefix that several stored keys share.
var ErrAmbiguousKey = errors.New("prov: ambiguous key prefix")

// Resolve returns the stored key that key names: key itself when it is
// stored, else the one stored key it is a prefix of (as git resolves an
// abbreviated hash). An unknown prefix wraps ErrNoStream, an ambiguous
// one ErrAmbiguousKey; a key no sidecar could carry is an error too.
func (s *Store) Resolve(key string) (string, error) {
	path, err := s.path(key)
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(path); err == nil {
		return key, nil
	}
	keys, err := s.Keys()
	if err != nil {
		return "", err
	}
	var match string
	for _, k := range keys {
		if !strings.HasPrefix(k, key) {
			continue
		}
		if match != "" {
			return "", fmt.Errorf("%w %q (%s…, %s…)", ErrAmbiguousKey, key, abbrev(match), abbrev(k))
		}
		match = k
	}
	if match == "" {
		return "", fmt.Errorf("%w for key %q (%d stored)", ErrNoStream, key, len(keys))
	}
	return match, nil
}

// abbrev shortens a 64-hex spec key for messages.
func abbrev(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
