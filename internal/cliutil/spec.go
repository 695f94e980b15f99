package cliutil

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// LoadSpec reads the JSON job spec at path into spec (a *edn.JobSpec;
// typed any because cliutil sits under the root package and cannot
// import it) through DecodeStrict, so a typo or a second document in a
// hand-written spec file fails loudly instead of silently measuring the
// default or the first.
func LoadSpec(path string, spec any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close() //nolint:errcheck // read only
	if err := DecodeStrict(f, spec); err != nil {
		return fmt.Errorf("spec %s: %w", path, err)
	}
	return nil
}

// DecodeStrict decodes exactly one JSON value from r into v: an unknown
// field is an error, and so is anything but white space after the
// value. It is the one request decoder of spec files and of both serve
// transports; an error reading r is returned wrapped, so a caller can
// still match it.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case errors.Is(err, io.EOF):
		return nil
	case err != nil:
		return fmt.Errorf("after the JSON value: %w", err)
	default:
		return errors.New("trailing data after the JSON value")
	}
}
