(* Tests for the shared flag parser. *)

let parse specs args = Cli.parse ~prog:"test" ~specs args

let is_error = function Error _ -> true | Ok () -> false

let test_flag_is_not_a_value () =
  (* "bench --json --no-bench" once wrote a report to a file named
     "--no-bench" and ran the full suite *)
  let json = ref None and no_bench = ref false in
  let specs = [ Cli.json json; Cli.flag "--no-bench" ~doc:"" no_bench ] in
  Alcotest.(check bool) "--json --no-bench is a usage error" true
    (is_error (parse specs [ "--json"; "--no-bench" ]));
  Alcotest.(check (option string)) "no file name taken" None !json;
  Alcotest.(check bool) "trailing --json is a usage error" true
    (is_error (parse specs [ "--no-bench"; "--json" ]))

let test_values_still_parse () =
  let json = ref None and no_bench = ref false and seed = ref 1 in
  let specs =
    [ Cli.json json; Cli.flag "--no-bench" ~doc:"" no_bench; Cli.seed seed ]
  in
  Alcotest.(check bool) "parses" false
    (is_error
       (parse specs [ "--json"; "out.json"; "--no-bench"; "--seed"; "7" ]));
  Alcotest.(check (option string)) "json" (Some "out.json") !json;
  Alcotest.(check bool) "no-bench" true !no_bench;
  Alcotest.(check int) "seed" 7 !seed

let test_pair_stops_at_flag () =
  let pair = ref None and quick = ref false in
  let specs =
    [ Cli.string_pair_opt "--diff-json" ~docv:"A B" ~doc:"" pair;
      Cli.quick quick ]
  in
  Alcotest.(check bool) "second value is a flag" true
    (is_error (parse specs [ "--diff-json"; "a.json"; "--quick" ]));
  Alcotest.(check bool) "two values" false
    (is_error (parse specs [ "--diff-json"; "a.json"; "b.json"; "--quick" ]));
  Alcotest.(check (option (pair string string))) "pair"
    (Some ("a.json", "b.json")) !pair

let () =
  Alcotest.run "cli"
    [ ( "parse",
        [ Alcotest.test_case "a flag is never a value" `Quick
            test_flag_is_not_a_value;
          Alcotest.test_case "values still parse" `Quick test_values_still_parse;
          Alcotest.test_case "arity-2 flag stops at a flag" `Quick
            test_pair_stops_at_flag ] ) ]
