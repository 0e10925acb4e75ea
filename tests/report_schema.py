"""The format of the ``report.json`` that ``nmloc run`` writes, as a JSON
Schema: the tests' oracle for every report branch.  The package itself
never validates a report; it builds each eigenreport and theory-condition
row from the fields of its record, so a field added to ``EigenReport`` or
``ConditionReport`` shows up here as an unknown property."""

_NUM = {"type": "number"}
_NUM_OR_NULL = {"type": ["number", "null"]}

EIGENREPORT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": [
        "center",
        "eigenvalue",
        "decay_envelope_margin",
        "eigen_residual",
        "interior",
        "envelope_constant",
    ],
    "properties": {
        "center": {"type": "array", "items": {"type": "integer"}},
        "eigenvalue": {
            "type": "object",
            "properties": {"re": _NUM, "im": _NUM},
            "required": ["re", "im"],
            "additionalProperties": False,
        },
        "decay_envelope_margin": _NUM,
        "eigen_residual": _NUM,
        "interior": {"type": "boolean"},
        "envelope_constant": _NUM_OR_NULL,
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": [
        "config_echo",
        "converged",
        "steps",
        "final_residual_norms",
        "qplus_norms",
        "dplus_norm",
        "localization",
        "theory_conditions",
    ],
    "properties": {
        "config_echo": {"type": "object"},
        "converged": {"type": "boolean"},
        "steps": {"type": "integer"},
        # norms of the final state: null when a run ends with non-finite entries
        "final_residual_norms": {"type": "object", "additionalProperties": _NUM_OR_NULL},
        "qplus_norms": {"type": "object", "additionalProperties": _NUM_OR_NULL},
        "dplus_norm": _NUM_OR_NULL,
        "gamma_used": _NUM,
        "master_residual": _NUM_OR_NULL,
        "bound_formulas": {"type": "object", "additionalProperties": {"type": "string"}},
        "localization": {
            "type": "object",
            "additionalProperties": False,
            "required": ["eigenreports", "completeness", "spectrum"],
            "properties": {
                "eigenreports": {"type": "array", "items": EIGENREPORT_SCHEMA},
                "completeness": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["min_singular_value", "gram_offdiag"],
                    "properties": {
                        "min_singular_value": _NUM_OR_NULL,
                        "gram_offdiag": _NUM_OR_NULL,
                        "unitarity_defect": _NUM_OR_NULL,
                    },
                },
                "spectrum": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "hausdorff_interior": _NUM_OR_NULL,
                        "skipped": {"type": ["string", "null"]},
                    },
                },
            },
        },
        "theory_conditions": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["name", "holds", "margin", "scale", "effective"],
                "properties": {
                    "name": {"type": "string"},
                    "holds": {"type": "boolean"},
                    "margin": _NUM_OR_NULL,
                    "scale": {"type": "string"},
                    "effective": {"type": "boolean"},
                    "detail": {"type": "string"},
                },
            },
        },
    },
}
