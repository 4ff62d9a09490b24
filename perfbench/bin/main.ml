(* The benchmark's one command: run a workload, print every metric it
   measured with its unit, and end with one JSON line. Exits 1 when any
   output check failed.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--size normal|tiny] [--profile quick|full] [--trace-out FILE]
            [--meta KEY=VALUE]... *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 and trace = ref 0 in
  let size = ref "normal" and profile = ref "quick" in
  let trace_out = ref None and provenance = ref [] in
  let add_meta kv =
    match String.index_opt kv '=' with
    | Some i ->
        provenance :=
          !provenance @ [ (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1)) ]
    | None -> raise (Arg.Bad ("--meta expects KEY=VALUE, got " ^ kv))
  in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" Bench.workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--size", Arg.Set_string size, "normal|tiny (tiny: smallest inputs, for tests)");
      ("--profile", Arg.Set_string profile, "quick|full runall's experiment profile");
      ("--trace-out", Arg.String (fun s -> trace_out := Some s), "FILE Chrome trace output");
      ("--meta", Arg.String add_meta, "KEY=VALUE provenance recorded with the result");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline msg;
    exit 2
  in
  if not (List.mem !workload Bench.workloads) then fail ("unknown workload: " ^ !workload);
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let size =
    match !size with
    | "normal" -> Common.Normal
    | "tiny" -> Common.Tiny
    | s -> fail ("unknown size: " ^ s)
  in
  if not (List.mem !profile [ "quick"; "full" ]) then fail ("unknown profile: " ^ !profile);
  let o =
    {
      Bench.workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      size;
      profile = !profile;
      expect_md5 = None;
      trace_out = !trace_out;
      provenance = !provenance;
    }
  in
  let out = Bench.run o in
  let meta = Bench.meta o in
  Out.print_human stdout ~meta out;
  print_endline (Gh_sim.Json.to_string (Out.to_json ~meta out));
  exit (if Out.correct out then 0 else 1)
