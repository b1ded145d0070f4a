"""Declaration guard: the spectrum keys are read in ``config.py`` and ``presets.py`` only.

``k_star``, ``p_tilde``, ``gamma_pre`` and ``gamma_ft`` fix the three-block
form of the two spectra.  ``presets`` sets them per case, and ``config``
validates them and turns them into the (count, value) blocks
``spectrum_pre`` and ``spectrum_ft`` that every other module reads.  A module
that reads one of these keys as an attribute, or passes it as a keyword,
holds a second copy of that form, so this guard parses every other module
of ``src/overadapt`` and refuses one.
"""

import ast
import pathlib

import overadapt

SOURCES = pathlib.Path(overadapt.__file__).parent
KEYS = {"k_star", "p_tilde", "gamma_pre", "gamma_ft"}


def test_no_module_but_config_and_presets_reads_a_spectrum_key():
    found = []
    for path in sorted(SOURCES.glob("*.py")):
        if path.name in ("config.py", "presets.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.arg if isinstance(node, ast.keyword) else None)
            if name in KEYS:
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, "spectrum keys outside config.py and presets.py:\n" + "\n".join(found)
