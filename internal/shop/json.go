package shop

import (
	"encoding/json"
	"fmt"
	"os"
)

// JSON returns the instance encoded as indented JSON.
func (in *Instance) JSON() ([]byte, error) {
	return json.MarshalIndent(in, "", "  ")
}

// FromJSON decodes an instance and validates it.
func FromJSON(data []byte) (*Instance, error) {
	var in Instance
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("shop: decoding instance: %w", err)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return &in, nil
}

// LoadFile reads and validates an instance from a JSON file.
func LoadFile(path string) (*Instance, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shop: reading instance: %w", err)
	}
	return FromJSON(data)
}
