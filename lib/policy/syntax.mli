(** Concrete syntax for policy files under [/yanc/policy/].

    Grammar (whitespace-insensitive; [#] starts a line comment):

    {v
    policy ::= seq ('|' seq)*                          parallel union
    seq    ::= atom (';' atom)*                        sequential
    atom   ::= '(' policy ')'
             | 'id' | 'drop' | 'flood' | 'all' | 'inport'
             | 'controller' | 'controller' '(' int ')'
             | 'fwd' '(' int ')'
             | 'filter' pred
             | 'if' pred 'then' atom 'else' atom
             | field ':=' value                        header rewrite
    pred   ::= conj ('||' conj)*
    conj   ::= term ('&&' term)*
    term   ::= '!' term | '(' pred ')' | 'true' | 'false'
             | field '=' value                         match test
    v}

    Match fields and value syntax are exactly the flow-file schema of
    {!Openflow.Of_match.set_field} ([nw_src = 10.0.0.0/8],
    [dl_type = 0x0800], [dl_src = aa:bb:cc:dd:ee:ff]); rewrite fields
    are the nine settable ones (no [in_port]/[dl_type]/[nw_proto]),
    values as in {!Openflow.Action.parse_one}. *)

val parse : string -> (Ir.t, string) result
(** Errors name the offending token; the result is always
    {!Ir.well_formed}. *)

val to_string : Ir.t -> string
(** Canonical printing: minimal parentheses, [id]/[drop] sugar,
    [if] branches always parenthesized. [parse (to_string p)]
    reconstructs [p] up to the representation of multi-field [Test]s
    (printed as [&&]-conjunctions of single-field tests). *)
