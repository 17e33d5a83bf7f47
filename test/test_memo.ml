(* Memo, the bounded table behind every cross-call cache in lib/:

   - a full table evicts the entry added longest ago, and counts it;
   - a [compute] that raises stores nothing;
   - a recursive [compute] that stores its own key leaves one entry;
   - physically distinct, structurally equal keys hit (Share keys its
     declaration memos this way). *)

let stats_t =
  Alcotest.testable
    (fun ppf (s : Memo.stats) ->
      Fmt.pf ppf "{hits=%d; misses=%d; evictions=%d}" s.hits s.misses
        s.evictions)
    ( = )

let stats hits misses evictions = { Memo.hits; misses; evictions }

let test_eviction_oldest_first () =
  let m = Memo.create 2 in
  let computed = ref [] in
  let get k = Memo.find m k (fun () -> computed := k :: !computed; k * 10) in
  ignore (get 1);
  ignore (get 2);
  ignore (get 1);
  Alcotest.check stats_t "no eviction below the cap" (stats 1 2 0) (Memo.stats m);
  (* a hit does not refresh the entry: 1 is still the oldest *)
  ignore (get 3);
  Alcotest.check stats_t "third key evicts one" (stats 1 3 1) (Memo.stats m);
  computed := [];
  Alcotest.(check int) "2 survives" 20 (get 2);
  Alcotest.(check int) "3 survives" 30 (get 3);
  Alcotest.(check (list int)) "neither recomputed" [] !computed;
  Alcotest.(check int) "1 was evicted" 10 (get 1);
  Alcotest.(check (list int)) "1 recomputed" [ 1 ] !computed;
  Alcotest.check stats_t "re-adding 1 evicts 2" (stats 3 4 2) (Memo.stats m);
  computed := [];
  ignore (get 2);
  Alcotest.(check (list int)) "2 was the next oldest" [ 2 ] !computed

let test_raise_stores_nothing () =
  let m = Memo.create 4 in
  (match Memo.find m "k" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "compute raised, find returned"
  | exception Failure msg -> Alcotest.(check string) "propagates" "boom" msg);
  Alcotest.(check int) "next lookup recomputes" 7 (Memo.find m "k" (fun () -> 7));
  Alcotest.check stats_t "two misses, nothing stored in between"
    (stats 0 2 0) (Memo.stats m);
  Alcotest.(check int) "then hits" 7 (Memo.find m "k" (fun () -> 8))

let test_recursive_compute_one_entry () =
  let m = Memo.create 2 in
  let v =
    Memo.find m "k" (fun () ->
        Memo.add m "k" 1;
        ignore (Memo.find m "k" (fun () -> 2));
        3)
  in
  Alcotest.(check int) "the outer compute's value is returned" 3 v;
  Alcotest.(check int) "the inner entry stays" 1 (Memo.find m "k" (fun () -> 4));
  (* one entry: two more keys fit before "k" is evicted *)
  ignore (Memo.find m "a" (fun () -> 0));
  Alcotest.(check int) "k still stored" 1 (Memo.find m "k" (fun () -> 5));
  Alcotest.(check int) "no eviction yet" 0 (Memo.stats m).evictions

let test_structural_keys_hit () =
  let m = Memo.create 4 in
  let k1 = [ "same"; String.make 3 'x' ] and k2 = [ "same"; String.make 3 'x' ] in
  Alcotest.(check bool) "keys are physically distinct" false (k1 == k2);
  let v1 = Memo.find m k1 (fun () -> ref 1) in
  let v2 = Memo.find m k2 (fun () -> ref 2) in
  Alcotest.(check bool) "the stored value comes back" true (v1 == v2);
  Alcotest.check stats_t "one hit" (stats 1 1 0) (Memo.stats m)

let suites =
  [ ( "memo",
      [ Alcotest.test_case "eviction is oldest-first and counted" `Quick
          test_eviction_oldest_first;
        Alcotest.test_case "a raising compute stores nothing" `Quick
          test_raise_stores_nothing;
        Alcotest.test_case "recursive compute leaves one entry" `Quick
          test_recursive_compute_one_entry;
        Alcotest.test_case "structurally equal keys hit" `Quick
          test_structural_keys_hit ] ) ]
