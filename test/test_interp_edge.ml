(* Edge-case tests for the MiniSpark dynamic semantics: modular wrapping
   corners, copy-in/copy-out, loop direction and shadowing, short-circuit
   evaluation, and value-semantics of arrays. *)

open Minispark

let run src =
  let env, prog = Typecheck.check (Parser.of_string src) in
  Interp.make env prog

let proc1 rt name args =
  match Interp.run_procedure rt name args with
  | [ r ] -> Value.as_int r
  | _ -> Alcotest.fail "expected one out value"

let test_modular_corners () =
  let rt =
    run
      {|
program m is
  type byte is mod 256;
  procedure ops (a : in byte; b : in byte; r : out byte)
  is
  begin
    r := a - b;
  end ops;
  procedure neg (a : in byte; r : out byte)
  is
  begin
    r := -a;
  end neg;
  procedure bnot (a : in byte; r : out byte)
  is
  begin
    r := not a;
  end bnot;
end m;|}
  in
  Alcotest.(check int) "0 - 1 wraps" 255 (proc1 rt "ops" [ Value.Vint 0; Value.Vint 1 ]);
  Alcotest.(check int) "-1 wraps" 255 (proc1 rt "neg" [ Value.Vint 1 ]);
  Alcotest.(check int) "-0 is 0" 0 (proc1 rt "neg" [ Value.Vint 0 ]);
  Alcotest.(check int) "not 0 = 255" 255 (proc1 rt "bnot" [ Value.Vint 0 ]);
  Alcotest.(check int) "not 170 = 85" 85 (proc1 rt "bnot" [ Value.Vint 170 ])

let test_shift_semantics () =
  let rt =
    run
      {|
program s is
  type word is mod 4294967296;
  procedure shl (a : in word; k : in integer; r : out word)
  is
  begin
    r := shift_left (a, k);
  end shl;
  procedure shr (a : in word; k : in integer; r : out word)
  is
  begin
    r := shift_right (a, k);
  end shr;
end s;|}
  in
  Alcotest.(check int) "shl wraps at 32 bits" 0
    (proc1 rt "shl" [ Value.Vint 0x80000000; Value.Vint 1 ]);
  Alcotest.(check int) "shl 1 24" 0x1000000 (proc1 rt "shl" [ Value.Vint 1; Value.Vint 24 ]);
  Alcotest.(check int) "shr top byte" 0xab
    (proc1 rt "shr" [ Value.Vint 0xab000000; Value.Vint 24 ])

let test_copy_semantics_arrays () =
  (* arrays are values: writing through one name never aliases another *)
  let rt =
    run
      {|
program c is
  type byte is mod 256;
  type vec is array (0 .. 2) of byte;
  procedure stomp (v : in vec; r : out byte)
  is
    w : vec;
  begin
    w := v;
    w (0) := 99;
    r := v (0);
  end stomp;
end c;|}
  in
  let v = Value.Varray (0, [| Value.Vint 1; Value.Vint 2; Value.Vint 3 |]) in
  Alcotest.(check int) "source array unchanged" 1 (proc1 rt "stomp" [ v ])

let test_reverse_loop () =
  let rt =
    run
      {|
program r is
  type vec is array (0 .. 4) of integer;
  procedure count_down (v : out vec)
  is
    n : integer;
  begin
    n := 0;
    for i in reverse 0 .. 4 loop
      v (i) := n;
      n := n + 1;
    end loop;
  end count_down;
end r;|}
  in
  match Interp.run_procedure rt "count_down" [] with
  | [ Value.Varray (0, data) ] ->
      Alcotest.(check int) "v(4) filled first" 0 (Value.as_int data.(4));
      Alcotest.(check int) "v(0) filled last" 4 (Value.as_int data.(0))
  | _ -> Alcotest.fail "expected array"

let test_loop_var_shadowing () =
  let rt =
    run
      {|
program sh is
  procedure nest (r : out integer)
  is
  begin
    r := 0;
    for i in 0 .. 2 loop
      for i in 0 .. 4 loop
        r := r + 1;
      end loop;
    end loop;
  end nest;
end sh;|}
  in
  Alcotest.(check int) "15 iterations" 15 (proc1 rt "nest" [])

let test_short_circuit () =
  (* the right operand of 'and then' must not be evaluated when the left is
     false: the division by zero would otherwise stick *)
  let rt =
    run
      {|
program sc is
  procedure guard (d : in integer; r : out integer)
  is
  begin
    if d /= 0 and then (100 / d) > 1 then
      r := 1;
    else
      r := 0;
    end if;
  end guard;
end sc;|}
  in
  Alcotest.(check int) "short-circuits on zero" 0 (proc1 rt "guard" [ Value.Vint 0 ]);
  Alcotest.(check int) "evaluates otherwise" 1 (proc1 rt "guard" [ Value.Vint 3 ])

let test_empty_loop () =
  let rt =
    run
      {|
program e is
  procedure noiter (n : in integer; r : out integer)
  is
  begin
    r := 7;
    for i in 1 .. n loop
      r := 0;
    end loop;
  end noiter;
end e;|}
  in
  Alcotest.(check int) "empty range skips body" 7 (proc1 rt "noiter" [ Value.Vint 0 ])

let test_in_out_roundtrip () =
  let rt =
    run
      {|
program io is
  type byte is mod 256;
  procedure bump (x : in out byte) is
  begin
    x := x + 1;
  end bump;
  procedure twice (x : in out byte) is
  begin
    bump (x);
    bump (x);
  end twice;
end io;|}
  in
  Alcotest.(check int) "nested in-out" 7 (proc1 rt "twice" [ Value.Vint 5 ])

let test_function_recursion () =
  let rt =
    run
      {|
program fx is
  function fib (n : in integer) return integer
  is
  begin
    if n <= 1 then
      return n;
    else
      return fib (n - 1) + fib (n - 2);
    end if;
  end fib;
  procedure get (r : out integer) is
  begin
    r := fib (12);
  end get;
end fx;|}
  in
  Alcotest.(check int) "fib 12" 144 (proc1 rt "get" [])

(* An assignment target's indices are evaluated exactly once: a call in
   the index runs (and is charged fuel) once.  [f] reads a global
   variable, so its calls are never served from the const-function memo:
   the statement costs 1 unit and [f] its 3 statements.  The tree-walker
   evaluated the index twice, for 2 * 3 + 1. *)
let test_index_evaluated_once () =
  let src =
    {|
program ix is
  type vec is array (0 .. 3) of integer;
  g : integer := 0;
  function f (k : in integer) return integer
  is
    t : integer;
  begin
    t := k;
    t := t + g;
    return t;
  end f;
  procedure p (k : in integer; a : in out vec)
  is
  begin
    a (f (k)) := 7;
  end p;
end ix;|}
  in
  let env, prog = Typecheck.check (Parser.of_string src) in
  let a = Value.Varray (0, Array.make 4 (Value.Vint 0)) in
  let rt = Interp.make env prog in
  let before = Interp.fuel_left rt in
  (match Interp.run_procedure rt "p" [ Value.Vint 2; a ] with
  | [ Value.Varray (0, data) ] -> Alcotest.(check int) "a(2) written" 7 (Value.as_int data.(2))
  | _ -> Alcotest.fail "expected one array");
  Alcotest.(check int) "n + 1 fuel" 4 (before - Interp.fuel_left rt);
  let rt = Interp_ref.make env prog in
  let before = rt.Interp_ref.fuel in
  ignore (Interp_ref.run_procedure rt "p" [ Value.Vint 2; a ]);
  Alcotest.(check int) "the tree-walker: 2n + 1" 7 (before - rt.Interp_ref.fuel)

(* The const-function memo is keyed by behaviour: [f] calls [g] and
   reads the table [t].  One domain runs the original, then each
   variant; a key that named [f], or digested [f]'s declaration alone,
   would serve the original's result to the variants that change what
   [f] computes. *)
let behaviour_src =
  {|
program beh is
  type byte is mod 256;
  type tbl is array (0 .. 3) of byte;
  t : constant tbl := (1, 2, 3, 4);
  function g (x : in byte) return byte
  is
  begin
    return x + 10;
  end g;
  function f (x : in byte) return byte
  is
  begin
    return g (x) + t (x mod 4);
  end f;
  function u (x : in byte) return byte
  is
  begin
    return x;
  end u;
  procedure p (x : in byte; r : out byte)
  is
  begin
    r := f (x);
  end p;
end beh;|}

(* the outcome of [p (3)] on a fresh runtime of the program, with [edit],
   and the const-function memo events of building and running it *)
let run_p ?edit () =
  let src =
    match edit with
    | None -> behaviour_src
    | Some (find, by) -> Str_replace.replace behaviour_src ~find ~by
  in
  let env, prog = Typecheck.check (Parser.of_string src) in
  let m0 = Interp.fn_memo_stats () in
  let r =
    match proc1 (Interp.make env prog) "p" [ Value.Vint 3 ] with
    | r -> string_of_int r
    | exception Interp.Stuck m -> "stuck: " ^ m
  in
  (r, Memo.diff (Interp.fn_memo_stats ()) m0)

let in_fresh_domain f = Domain.join (Domain.spawn f)

let test_memo_keyed_by_behaviour () =
  let variants =
    [ ("unrelated u", ("return x;", "return x + 1;"), `Hit);
      ("callee g", ("return x + 10;", "return x + 20;"), `Miss);
      ("table t", ("(1, 2, 3, 4)", "(9, 9, 9, 9)"), `Miss) ]
  in
  let fresh =
    List.map (fun (_, edit, _) -> in_fresh_domain (fun () -> fst (run_p ~edit ()))) variants
  in
  Alcotest.(check (list string)) "each variant on its own"
    [ "17"; "27"; "22" ] fresh;
  in_fresh_domain (fun () ->
      let r, m = run_p () in
      Alcotest.(check string) "the original" "17" r;
      Alcotest.(check (pair int int)) "the original: f and g miss" (0, 2)
        (m.Memo.hits, m.Memo.misses);
      List.iter2
        (fun (what, edit, expect) want ->
          let r, m = run_p ~edit () in
          Alcotest.(check string) (what ^ ": the variant's outcome") want r;
          match expect with
          | `Hit ->
              Alcotest.(check (pair int int)) (what ^ ": f hits") (1, 0)
                (m.Memo.hits, m.Memo.misses)
          | `Miss -> Alcotest.(check bool) (what ^ ": f misses") true (m.Memo.misses > 0))
        variants fresh)

(* Two const functions can share one closure: [f]'s parameter [h] draws
   the later function [h] into [f]'s closure, and [h] calls [f].  A key
   without the function's name would store [f (3)] = 4 where [h (3)]
   looks, and every later [h (3)] in the domain would read 4.  [p] makes
   the call, so [h] and [f] see the same argument value. *)
let test_memo_shared_closure () =
  let src =
      {|
program sc is
  type byte is mod 256;
  function f (h : in byte) return byte
  is
  begin
    return h + 1;
  end f;
  function h (x : in byte) return byte
  is
  begin
    return f (x) + 5;
  end h;
  procedure p (x : in byte; r : out byte)
  is
  begin
    r := h (x);
  end p;
end sc;|}
  in
  in_fresh_domain (fun () ->
      let rt = run src in
      List.iter
        (fun what ->
          Alcotest.(check int) what 9 (proc1 rt "p" [ Value.Vint 3 ]))
        [ "h (3), cold"; "h (3), warm" ])

let suites =
  [ ( "minispark:interp-edge",
      [ Alcotest.test_case "modular corners" `Quick test_modular_corners;
        Alcotest.test_case "shift semantics" `Quick test_shift_semantics;
        Alcotest.test_case "array value semantics" `Quick test_copy_semantics_arrays;
        Alcotest.test_case "reverse loop" `Quick test_reverse_loop;
        Alcotest.test_case "loop variable shadowing" `Quick test_loop_var_shadowing;
        Alcotest.test_case "short-circuit evaluation" `Quick test_short_circuit;
        Alcotest.test_case "empty loop range" `Quick test_empty_loop;
        Alcotest.test_case "nested in-out" `Quick test_in_out_roundtrip;
        Alcotest.test_case "recursive functions" `Quick test_function_recursion;
        Alcotest.test_case "assignment indices evaluated once" `Quick
          test_index_evaluated_once;
        Alcotest.test_case "const-function memo keyed by behaviour" `Quick
          test_memo_keyed_by_behaviour;
        Alcotest.test_case "const functions sharing one closure" `Quick
          test_memo_shared_closure ] ) ]
