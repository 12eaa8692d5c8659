package core

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// FromJSON decodes a machine description, overlaying the supplied
// fields onto the paper's Proposed() device so a config file only
// needs to name what it changes. Unknown fields are rejected,
// "Integrated": false is rejected (the experiments build integrated
// nodes and column-buffer caches from the description, so it cannot
// describe the reference system), and the result must pass Validate():
// a file cannot describe a device whose column-buffer caches don't
// match its DRAM organisation.
//
// The field names are the Go field names of Device (and DRAM /
// costmodel.Inputs for the nested structs), e.g.:
//
//	{
//	  "Name": "32-bank experiment",
//	  "DRAM": {"Banks": 32, "ColumnBytes": 256},
//	  "ICacheBytes": 8192, "ICacheLineBytes": 256,
//	  "DCacheBytes": 16384, "DCacheLineBytes": 256,
//	  "VictimEntries": 8
//	}
func FromJSON(data []byte) (Device, error) {
	d := Proposed()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return Device{}, fmt.Errorf("core: machine config: %w", err)
	}
	if !d.Integrated {
		return Device{}, fmt.Errorf(`core: machine config: "Integrated": false, but the experiments build integrated nodes from it`)
	}
	if err := d.Validate(); err != nil {
		return Device{}, fmt.Errorf("core: machine config: %w", err)
	}
	return d, nil
}
