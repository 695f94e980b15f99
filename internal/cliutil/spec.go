package cliutil

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// LoadSpec reads the JSON job spec at path into spec (a *edn.JobSpec;
// typed any because cliutil sits under the root package and cannot
// import it). Unknown fields are rejected so a typo in a hand-written
// spec file fails loudly instead of silently measuring the default.
func LoadSpec(path string, spec any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return fmt.Errorf("spec %s: %w", path, err)
	}
	return nil
}
