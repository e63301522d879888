"""Builtin function library and user-defined function/module tests."""

import pytest

from repro.errors import DynamicError, StaticError, TypeError_
from tests.helpers import run, strings, values, xml

FILM_MODULE = """
module namespace film = "films";
declare function film:filmsByActor($actor as xs:string) as node()*
{ doc("filmDB.xml")//name[../actor = $actor] };
"""

FILMS = """<films>
<film><name>The Rock</name><actor>Sean Connery</actor></film>
<film><name>Goldfinger</name><actor>Sean Connery</actor></film>
<film><name>Green Card</name><actor>Gerard Depardieu</actor></film>
</films>"""


class TestBuiltins:
    @pytest.mark.parametrize("query,expected", [
        ("count((1, 2, 3))", [3]),
        ("count(())", [0]),
        ("empty(())", [True]),
        ("exists((1))", [True]),
        ("string(42)", ["42"]),
        ("concat('a', 'b', 'c')", ["abc"]),
        ("string-join(('a', 'b'), '-')", ["a-b"]),
        ("substring('hello', 2)", ["ello"]),
        ("substring('hello', 2, 3)", ["ell"]),
        ("string-length('abc')", [3]),
        ("normalize-space('  a  b ')", ["a b"]),
        ("contains('hello', 'ell')", [True]),
        ("starts-with('hello', 'he')", [True]),
        ("ends-with('hello', 'lo')", [True]),
        ("substring-before('a=b', '=')", ["a"]),
        ("substring-after('a=b', '=')", ["b"]),
        ("upper-case('ab')", ["AB"]),
        ("lower-case('AB')", ["ab"]),
        ("translate('abc', 'ab', 'xy')", ["xyc"]),
        ("sum((1, 2, 3))", [6]),
        ("sum(())", [0]),
        ("avg((2, 4))", [3.0]),
        ("max((1, 5, 3))", [5]),
        ("min((4, 2, 8))", [2]),
        ("abs(-3)", [3]),
        ("floor(2.7)", [2]),
        ("ceiling(2.1)", [3]),
        ("round(2.5)", [3]),
        ("distinct-values((1, 2, 1, 3))", [1, 2, 3]),
        ("reverse((1, 2, 3))", [3, 2, 1]),
        ("subsequence((1, 2, 3, 4), 2, 2)", [2, 3]),
        ("insert-before((1, 3), 2, (2))", [1, 2, 3]),
        ("remove((1, 2, 3), 2)", [1, 3]),
        ("index-of((10, 20, 10), 10)", [1, 3]),
        ("zero-or-one(())", []),
        ("exactly-one((5))", [5]),
        ("one-or-more((1, 2))", [1, 2]),
        ("deep-equal((1, 2), (1, 2))", [True]),
        ("matches('abc', 'b')", [True]),
        ("replace('banana', 'a', 'o')", ["bonono"]),
        ("tokenize('a,b,c', ',')", ["a", "b", "c"]),
        ("number('5')", [5.0]),
        ("boolean((1))", [True]),
    ])
    def test_builtin(self, query, expected):
        assert values(run(query)) == expected

    def test_number_nan(self):
        [result] = run("number('abc')")
        assert result.value != result.value  # NaN

    def test_cardinality_violations(self):
        with pytest.raises(DynamicError):
            run("exactly-one(())")
        with pytest.raises(DynamicError):
            run("zero-or-one((1, 2))")
        with pytest.raises(DynamicError):
            run("one-or-more(())")

    def test_name_functions(self):
        assert values(run("name(<foo/>)")) == ["foo"]
        assert values(run("local-name(<p:foo xmlns:p='u'/>)")) == ["foo"]
        assert values(run("namespace-uri(<p:foo xmlns:p='u'/>)")) == ["u"]

    def test_doc_and_root(self):
        docs = {"x.xml": "<r><c/></r>"}
        result = run("doc('x.xml')//c/root()", docs=docs)
        assert result[0].kind == "document"

    def test_doc_available(self):
        docs = {"x.xml": "<r/>"}
        assert values(run("doc-available('x.xml')", docs=docs)) == [True]
        assert values(run("doc-available('y.xml')", docs=docs)) == [False]

    def test_missing_doc_raises(self):
        with pytest.raises(DynamicError):
            run("doc('nothere.xml')", docs={})

    def test_position_and_last_in_predicates(self):
        assert values(run("(10, 20, 30)[position() = 2]")) == [20]
        assert values(run("(10, 20, 30)[position() = last()]")) == [30]

    def test_xrpc_host_and_path(self):
        assert values(run("xrpc:host('xrpc://y.example.org:8080/db')")) == \
            ["y.example.org:8080"]
        assert values(run("xrpc:path('xrpc://y.example.org/data/f.xml')")) == \
            ["data/f.xml"]
        assert values(run("xrpc:host('plain.xml')")) == ["localhost"]
        assert values(run("xrpc:path('plain.xml')")) == ["plain.xml"]


class TestUserFunctions:
    def test_local_function(self):
        query = """
        declare function local:double($x as xs:integer) as xs:integer
        { $x * 2 };
        local:double(21)
        """
        assert values(run(query)) == [42]

    def test_recursion(self):
        query = """
        declare function local:fact($n as xs:integer) as xs:integer
        { if ($n <= 1) then 1 else $n * local:fact($n - 1) };
        local:fact(5)
        """
        assert values(run(query)) == [120]

    def test_untyped_arg_cast_to_param_type(self):
        query = """
        declare function local:f($x as xs:integer) { $x + 1 };
        local:f(<a>4</a>)
        """
        assert values(run(query)) == [5]

    def test_arity_overloading(self):
        query = """
        declare function local:f($x as xs:integer) { $x };
        declare function local:f($x as xs:integer, $y as xs:integer) { $x + $y };
        (local:f(1), local:f(1, 2))
        """
        assert values(run(query)) == [1, 3]

    def test_wrong_arg_type_raises(self):
        query = """
        declare function local:f($x as element()) { $x };
        local:f(1)
        """
        with pytest.raises(TypeError_):
            run(query)

    def test_cardinality_enforced(self):
        query = """
        declare function local:f($x as xs:integer) { $x };
        local:f((1, 2))
        """
        with pytest.raises(TypeError_):
            run(query)

    def test_return_type_enforced(self):
        query = """
        declare function local:f() as xs:integer { 'nope' };
        local:f()
        """
        with pytest.raises(TypeError_):
            run(query)

    def test_declared_variable(self):
        query = "declare variable $x := 10; $x * 2"
        assert values(run(query)) == [20]

    def test_external_variable(self):
        query = "declare variable $x external; $x + 1"
        assert values(run(query, variables={"x": run("41")})) == [42]

    def test_unknown_arity_raises(self):
        query = """
        declare function local:f($x as xs:integer) { $x };
        local:f(1, 2)
        """
        with pytest.raises(StaticError):
            run(query)


class TestModules:
    def test_import_module(self):
        query = """
        import module namespace f = "films" at "http://x.example.org/film.xq";
        f:filmsByActor("Sean Connery")
        """
        result = run(query,
                     docs={"filmDB.xml": FILMS},
                     modules={"http://x.example.org/film.xq": FILM_MODULE})
        assert strings(result) == ["The Rock", "Goldfinger"]

    def test_paper_q1(self):
        query = """
        import module namespace f = "films" at "http://x.example.org/film.xq";
        <films> { f:filmsByActor("Sean Connery") } </films>
        """
        result = run(query,
                     docs={"filmDB.xml": FILMS},
                     modules={"http://x.example.org/film.xq": FILM_MODULE})
        assert xml(result) == \
            "<films><name>The Rock</name><name>Goldfinger</name></films>"

    def test_missing_module_raises(self):
        query = 'import module namespace f = "nope" at "missing.xq"; 1'
        with pytest.raises(StaticError):
            run(query)

    def test_module_function_must_be_in_namespace(self):
        bad = """
        module namespace m = "m";
        declare function other:f() { 1 };
        """
        from repro.xquery.modules import ModuleRegistry
        with pytest.raises(StaticError):
            ModuleRegistry().register_source(
                'module namespace m = "m";\n'
                'declare namespace other = "o";\n'
                'declare function other:f() { 1 };\n')

    def test_transitive_module_import(self):
        base = """
        module namespace base = "urn:base";
        declare function base:one() { 1 };
        """
        upper = """
        module namespace upper = "urn:upper";
        import module namespace base = "urn:base";
        declare function upper:two() { base:one() + 1 };
        """
        query = 'import module namespace u = "urn:upper"; u:two()'
        from repro.xquery.modules import ModuleRegistry
        from tests.helpers import interpret
        registry = ModuleRegistry()
        registry.register_source(base)
        registry.register_source(upper)
        assert values(interpret(query, registry=registry)) == [2]

    def test_module_compiled_once(self):
        from repro.xquery.modules import ModuleRegistry
        registry = ModuleRegistry()
        module = registry.register_source(FILM_MODULE)
        assert registry.load("films", []) is module
