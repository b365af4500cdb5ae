"""Every text parser rejects malformed input with the package's own errors."""

import re
from dataclasses import fields
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clutchopt as co
from clutchopt.bench import load_config
from clutchopt.errors import ConfigError, InvalidInputError
from clutchopt.stack import parse_instance

COLUMNS = [f.name for f in fields(co.BenchmarkRecord)]
# line shapes of the instance, QUBO, config and results formats, filled from VALUES
TEMPLATES = [
    "{}", "{} {}", "{} {} {}", "QUBO {} {} {}", "# gauge_fixed {}", "# disks {} segments {}",
    "# varmap {} -> {}", "L {} {}", "Q {} {} {}", "L {} {} {}", "Q {} {} {} {}", "size {} {}",
    "solver {} {}", "instances {}",
    ",".join(COLUMNS), ",".join(["{}"] * len(COLUMNS)), '{{"n_disks": {}}}', "[{}]",
]
VALUES = [
    "-1", "0", "1", "2", "0.5", "nan", "1e999", "1,0", "1,1", "x", "-", "sa", "samples=2",
    "99999999999999999999",
]


@st.composite
def lines(draw):
    template = draw(st.sampled_from(TEMPLATES))
    return template.format(*(draw(st.sampled_from(VALUES)) for _ in range(template.count("{}"))))


@settings(max_examples=500)
@given(st.lists(lines(), max_size=8).map("\n".join))
def test_only_package_errors_escape(text):
    results = (partial(co.parse_results, fmt=fmt) for fmt in ("csv", "jsonl"))
    for parse in (parse_instance, co.parse_qubo, co.parse_config, *results):
        try:
            parse(text)
        except (InvalidInputError, ConfigError):
            pass


# a file that is not UTF-8 text is a malformed file too, named in the message
@pytest.mark.parametrize(
    "load, error", [(co.read_instance, InvalidInputError), (co.load_qubo, InvalidInputError), (load_config, ConfigError)]
)
def test_undecodable_file_raises_a_package_error(tmp_path, load, error):
    path = tmp_path / "latin-1.txt"
    path.write_bytes("size 2 4\n# caf\xe9\n".encode("latin-1"))
    with pytest.raises(error, match=rf"^{re.escape(str(path))} is not UTF-8 text"):
        load(path)
