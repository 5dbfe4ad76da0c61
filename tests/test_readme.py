"""The README's examples run as written, from a directory that holds the
fixtures."""

import ast
import pathlib
import shlex

from hpa.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _first_block(heading):
    """The text of the first fenced block under a '## heading' line, with
    its info string (say 'python') as the first line."""
    readme = (ROOT / 'README.md').read_text()
    return readme.split(f'\n## {heading}\n', 1)[1].split('```')[1]


def _cd_to_fixtures(tmp_path, monkeypatch):
    (tmp_path / 'fixtures').symlink_to(ROOT / 'fixtures')
    monkeypatch.chdir(tmp_path)


def test_readme_python_api(tmp_path, monkeypatch, capsys):
    info, code = _first_block('Python API').split('\n', 1)
    assert info == 'python'
    _cd_to_fixtures(tmp_path, monkeypatch)
    exec(compile(code, 'README.md', 'exec'), {})
    assert capsys.readouterr().out


def test_readme_command_lines(tmp_path, monkeypatch, capsys):
    lines = [line for line in _first_block('Command line').splitlines()
             if line.startswith('hpa ')]
    assert lines
    _cd_to_fixtures(tmp_path, monkeypatch)
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert main(argv[1:]) == 0, line


def test_library_has_no_assert_statement():
    # the README promises that `python -O`, which strips asserts, changes
    # nothing: invariants must be typed exceptions
    paths = sorted((ROOT / 'src' / 'hpa').glob('*.py'))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
