package conformance

func init() {
	// Additional sample documents for the extended suite.
	Docs["table"] = `<t><r><c>1</c><c>2</c><c>3</c></r><r><c>4</c><c>5</c></r><r><c>6</c></r></t>`
	Docs["book"] = `<bk><sec id="s1"><ttl>A</ttl><sec id="s2"><ttl>B</ttl><p>x</p></sec></sec><sec id="s3"><p>y</p></sec></bk>`
	Register(cases2...)
}

// cases2 extends the suite: positional arithmetic per context, nested
// sections, scalar edge cases, and the documented namespace-axis
// behaviour. Expectations computed by hand against the Docs.
var cases2 = []Case{
	// ---- per-context positional arithmetic (table) ----
	{Doc: "table", Expr: "string(/t/r[2]/c[2])", Want: "str:5"},
	{Doc: "table", Expr: "count(/t/r/c[2])", Want: "num:2"},
	{Doc: "table", Expr: "count(/t/r/c[last()])", Want: "num:3"},
	{Doc: "table", Expr: "string(/t/r[last()]/c[last()])", Want: "str:6"},
	{Doc: "table", Expr: "count(/t/r/c[last() - 1])", Want: "num:2"},
	{Doc: "table", Expr: "sum(/t/r/c[last() - 1])", Want: "num:6"},
	{Doc: "table", Expr: "sum(/t/r/c)", Want: "num:21"},
	{Doc: "table", Expr: "sum(/t/r/c[position() < last()])", Want: "num:7"},
	{Doc: "table", Expr: "count((/t/r/c)[position() mod 2 = 0])", Want: "num:3"},
	{Doc: "table", Expr: "string((/t/r/c)[4])", Want: "str:4"},
	{Doc: "table", Expr: "count(/t/r[c = 5])", Want: "num:1"},
	{Doc: "table", Expr: "count(/t/r[c[2] = 5])", Want: "num:1"},
	{Doc: "table", Expr: "count(/t/r[c[2]])", Want: "num:2"},
	{Doc: "table", Expr: "sum(/t/r[1]/c | /t/r[2]/c)", Want: "num:15"},
	{Doc: "table", Expr: "count(/t/r[last()]/preceding-sibling::*)", Want: "num:2"},
	{Doc: "table", Expr: "string(/t/r[2]/c[1]/following::c)", Want: "str:5"},
	{Doc: "table", Expr: "sum(/t/r/c[. > 2][position() = 1])", Want: "num:13"},
	{Doc: "table", Expr: "count(/t/r/c[position() = 2 or position() = 3])", Want: "num:3"},
	{Doc: "table", Expr: "string(/t/r/c[. = ../c[1] + 1])", Want: "str:2"},
	{Doc: "table", Expr: "count(/t/r[count(c) = count(/t/r[2]/c)])", Want: "num:1"},

	// ---- nested sections (book) ----
	{Doc: "book", Expr: "count(//sec)", Want: "num:3"},
	{Doc: "book", Expr: "count(//sec//sec)", Want: "num:1"},
	{Doc: "book", Expr: "count(//sec/ancestor-or-self::sec)", Want: "num:3"},
	{Doc: "book", Expr: "count(//sec[.//p])", Want: "num:3"},
	{Doc: "book", Expr: "count(//sec[p])", Want: "num:2"},
	{Doc: "book", Expr: "string(//sec[ttl and not(p)]/@id)", Want: "str:s1"},
	{Doc: "book", Expr: "string(//p/ancestor::sec[1]/@id)", Want: "str:s2"},
	{Doc: "book", Expr: "string(//p/ancestor::sec[last()]/@id)", Want: "str:s1"},
	{Doc: "book", Expr: "count(//ttl/following::p)", Want: "num:2"},
	{Doc: "book", Expr: "count(//p/preceding::ttl)", Want: "num:2"},
	{Doc: "book", Expr: "string(//sec[@id = 's2']/ancestor::sec/@id)", Want: "str:s1"},
	{Doc: "book", Expr: "string(id('s2')/ttl)", Want: "str:B"},
	{Doc: "book", Expr: "count(//sec[starts-with(@id, 's')])", Want: "num:3"},
	{Doc: "book", Expr: "count(//sec[contains(., 'B')])", Want: "num:2"},
	{Doc: "book", Expr: "translate(string(//sec/@id), 's', 'S')", Want: "str:S1"},
	{Doc: "book", Expr: "count(//sec[ancestor::sec])", Want: "num:1"},
	{Doc: "book", Expr: "count(//*[self::sec or self::ttl])", Want: "num:5"},
	{Doc: "book", Expr: "string(//sec[last()]/@id)", Want: "str:s2"},
	{Doc: "book", Expr: "string((//sec)[last()]/@id)", Want: "str:s3"},
	{Doc: "book", Expr: "//sec[.//ttl = 'B']", Want: "nodes:sec#s1 sec#s2"},

	// ---- arithmetic and scalar edge cases ----
	{Doc: "basic", Expr: "2 + 3 * 4 - 1", Want: "num:13"},
	{Doc: "basic", Expr: "(2 + 3) * 4", Want: "num:20"},
	{Doc: "basic", Expr: "10 mod 3", Want: "num:1"},
	{Doc: "basic", Expr: "-10 mod 3", Want: "num:-1"},
	{Doc: "basic", Expr: "10 div 4 * 2", Want: "num:5"},
	{Doc: "basic", Expr: "--3", Want: "num:3"},
	{Doc: "basic", Expr: "string(0 div 0)", Want: "str:NaN"},
	{Doc: "basic", Expr: "0 div 0 = 0 div 0", Want: "bool:false"},
	{Doc: "basic", Expr: "0 div 0 != 0 div 0", Want: "bool:true"},
	{Doc: "basic", Expr: "1 div 0 > 1000", Want: "bool:true"},
	{Doc: "basic", Expr: "boolean(-0)", Want: "bool:false"},
	{Doc: "basic", Expr: "number(true())", Want: "num:1"},
	{Doc: "basic", Expr: "number('  12  ')", Want: "num:12"},
	{Doc: "basic", Expr: "number('1e3')", Want: "num:NaN"},
	{Doc: "basic", Expr: "concat('a', 1 + 1, true())", Want: "str:a2true"},
	{Doc: "basic", Expr: "substring('abcde', 0)", Want: "str:abcde"},
	{Doc: "basic", Expr: "substring('abcde', 1.7)", Want: "str:bcde"},
	{Doc: "basic", Expr: "substring('', 1)", Want: "str:"},
	{Doc: "basic", Expr: "string-length(normalize-space('   '))", Want: "num:0"},
	{Doc: "basic", Expr: "translate('abc', '', '')", Want: "str:abc"},
	{Doc: "basic", Expr: "not(not(//b))", Want: "bool:true"},
	{Doc: "basic", Expr: "boolean('false')", Want: "bool:true"},
	{Doc: "basic", Expr: "'2' > '10'", Want: "bool:false"},
	{Doc: "basic", Expr: "'abc' = 'abc'", Want: "bool:true"},
	{Doc: "basic", Expr: "true() > false()", Want: "bool:true"},
	{Doc: "basic", Expr: "floor(-1.5)", Want: "num:-2"},
	{Doc: "basic", Expr: "ceiling(-1.5)", Want: "num:-1"},
	{Doc: "basic", Expr: "round(1 div 0)", Want: "num:Infinity"},

	// ---- node tests within predicates, mixed content ----
	{Doc: "mixed", Expr: "count(/m/node()[4])", Want: "num:1"},
	{Doc: "mixed", Expr: "local-name(/m/node()[5])", Want: "str:p"},
	{Doc: "mixed", Expr: "count(/m/node()[self::text()])", Want: "num:2"},
	{Doc: "mixed", Expr: "count(/m/node()[not(self::*)])", Want: "num:4"},
	{Doc: "mixed", Expr: "count(/m/node()[self::comment() or self::processing-instruction()])", Want: "num:2"},
	{Doc: "mixed", Expr: "string(/m/text()[2])", Want: "str:t2"},
	{Doc: "mixed", Expr: "string-length(/m)", Want: "num:6"},

	// ---- namespaces (documented shared-record namespace axis) ----
	{Doc: "ns", Expr: "string(/r/p:b/attribute::p:k)", Want: "str:1"},
	{Doc: "ns", Expr: "count(//namespace::*)", Want: "num:2"},
	{Doc: "ns", Expr: "count(/r/p:b/@*)", Want: "num:2"},
	{Doc: "ns", Expr: "count(//*[namespace-uri() = 'urn:p'])", Want: "num:2"},
	{Doc: "ns", Expr: "local-name(/r/namespace::*[name() = 'p'])", Want: "str:p"},

	// ---- attributes everywhere ----
	{Doc: "basic", Expr: "count(//@*)", Want: "num:7"},
	{Doc: "basic", Expr: "//@id[. = '4']", Want: "nodes:@id=4"},
	{Doc: "basic", Expr: "//@id[. > 5]/..", Want: "nodes:b#6 d#7"},
	{Doc: "basic", Expr: "count(//*[@id][@id < 4])", Want: "num:3"},
	{Doc: "basic", Expr: "string(//b/@id[1])", Want: "str:2"},
	{Doc: "basic", Expr: "//b[../@id = 1]", Want: "nodes:b#2 b#3"},

	// ---- variables ----
	{Doc: "basic", Expr: "$x > $y", VarNum: map[string]float64{"x": 2, "y": 1}, Want: "bool:true"},
	{Doc: "basic", Expr: "count($s)", VarStr: map[string]string{"s": "zz"}, WantErr: true},
	{Doc: "basic", Expr: "substring($s, $n)", VarStr: map[string]string{"s": "hello"}, VarNum: map[string]float64{"n": 3}, Want: "str:llo"},
	{Doc: "basic", Expr: "//a[count(b) = $n]", VarNum: map[string]float64{"n": 2}, Want: "nodes:a#1"},

	// ---- string() of various node kinds ----
	{Doc: "mixed", Expr: "string(/m/processing-instruction())", Want: "str:d"},
	{Doc: "basic", Expr: "string(/)", Want: "str:xyzy"},
	{Doc: "basic", Expr: "string(//a[2])", Want: "str:y"},

	// ---- deeper filter/path combinations ----
	{Doc: "basic", Expr: "(//a/b)[2]/..", Want: "nodes:a#1"},
	{Doc: "basic", Expr: "(//a)[2]/b/@id", Want: "nodes:@id=6"},
	{Doc: "basic", Expr: "((//b)[1] | (//b)[3])/@id", Want: "nodes:@id=2 @id=6"},
	{Doc: "basic", Expr: "count((//a | //d)[@id])", Want: "num:3"},
	{Doc: "ids", Expr: "id(id('i2')/ref)", Want: "nodes:item#i1 item#i3"},
	{Doc: "basic", Expr: "//b[2]/self::b[1]", Want: "nodes:b#3"},
}

// cases3 exercises the core function library with document-dependent
// arguments, so the calls reach the runtime (the virtual machine in the
// algebraic engine) instead of being constant-folded by the compiler.
var cases3 = []Case{
	{Doc: "basic", Expr: "starts-with(//c, 'z')", Want: "bool:true"},
	{Doc: "basic", Expr: "starts-with(//c, 'x')", Want: "bool:false"},
	{Doc: "basic", Expr: "contains(string(/root/a), 'yz')", Want: "bool:true"},
	{Doc: "basic", Expr: "substring-before(concat(//b, '-', //c), '-')", Want: "str:x"},
	{Doc: "basic", Expr: "substring-after(concat(//b, '-', //c), '-')", Want: "str:z"},
	{Doc: "basic", Expr: "substring(string(/root/a), 2, 1)", Want: "str:y"},
	{Doc: "basic", Expr: "string-length(string(/root/a))", Want: "num:3"},
	{Doc: "basic", Expr: "normalize-space(concat(' ', //b, '  ', //c, ' '))", Want: "str:x z"},
	{Doc: "basic", Expr: "translate(//c, 'z', 'Z')", Want: "str:Z"},
	{Doc: "basic", Expr: "not(contains(//b, 'q'))", Want: "bool:true"},
	{Doc: "nums", Expr: "floor(//v)", Want: "num:2"},
	{Doc: "nums", Expr: "ceiling(//v)", Want: "num:3"},
	{Doc: "nums", Expr: "round(//v)", Want: "num:3"},
	{Doc: "basic", Expr: "boolean(count(//b) - 3)", Want: "bool:false"},
	{Doc: "basic", Expr: "number(//b[2]) != number(//b[2])", Want: "bool:true"},
	{Doc: "basic", Expr: "lang('en')", Want: "bool:false"},
	{Doc: "basic", Expr: "name(//*[name() = 'd'])", Want: "str:d"},
	{Doc: "basic", Expr: "//*[local-name() = concat('', 'c')]", Want: "nodes:c#4"},
	{Doc: "basic", Expr: "//b[substring(@id, 1, 1) = '2']", Want: "nodes:b#2"},
	{Doc: "basic", Expr: "//b[translate(., 'xy', 'ab') = 'b']", Want: "nodes:b#3 b#6"},
	{Doc: "basic", Expr: "concat(count(//a), ':', count(//b))", Want: "str:2:3"},
	{Doc: "basic", Expr: "string(number(//c))", Want: "str:NaN"},
	{Doc: "nums", Expr: "//n[number(.) = floor(//v) + 1]", Want: "nodes:n"},
	{Doc: "people", Expr: "//person[substring-before(name, 'ob') = 'B']/age", Want: "nodes:age"},
	{Doc: "people", Expr: "sum(//age) div count(//age)", Want: "num:30"},
	{Doc: "people", Expr: "//person[age > sum(//age) div count(//age)]/name", Want: "nodes:name"},
	{Doc: "people", Expr: "string(//person[age = 35]/name)", Want: "str:Carl"},

	// ---- explicit descendant steps with positions (index-scan rule
	// interaction: positions count over the whole document) ----
	{Doc: "basic", Expr: "/descendant::b[2]", Want: "nodes:b#3"},
	{Doc: "basic", Expr: "/descendant::b[last()]", Want: "nodes:b#6"},
	{Doc: "basic", Expr: "/descendant::b[position() > 1]/@id", Want: "nodes:@id=3 @id=6"},
	{Doc: "basic", Expr: "count(/descendant::*[@id mod 2 = 0])", Want: "num:3"},
	{Doc: "basic", Expr: "/descendant-or-self::b[2]", Want: "nodes:b#3"},
	{Doc: "basic", Expr: "/descendant::b[@id = '3']/following-sibling::c", Want: "nodes:c#4"},

	// ---- the context node as a union branch, in a predicate: each b's
	// own union with another path ----
	{Doc: "basic", Expr: "count(//b[count(/root | .) = 2])", Want: "num:3"},
	{Doc: "basic", Expr: "count(//b[count(. | /root/a) = 3])", Want: "num:3"},
	{Doc: "basic", Expr: "count(//b[count((.)[1] | ./self::node() | /root) = 2])", Want: "num:3"},
}

func init() {
	Cases = append(Cases, cases3...)
}
