(* Repo-wide static lint driver.

   Usage: lint [--waivers FILE] [--json FILE] [--metrics-json FILE]
               [--source-root DIR] PATH...

   Collects the .cmt files under the PATHs (the repo builds with
   -bin-annot; run from the build root so the .objs directories are in
   reach) and runs the typed-AST analyzer (Typedlint): the five
   nondeterminism and memory-model name rules plus capture/escape,
   module-escape and blocking-in-task.  Every .ml file
   under the PATHs must be claimed by a loaded unit; one that is not is
   reported as lint/unscanned-source.

   The driver exits non-zero if any unwaivered finding survives —
   including unjustified, unknown-rule or stale waivers, so the waiver set
   can only shrink.  --json writes the findings as a JSON array.  Run by
   CI and by `dune runtest` (see the root dune file); rules are
   documented in DESIGN.md §15. *)

let usage =
  "usage: lint [--waivers FILE] [--json FILE] [--metrics-json FILE]\n\
  \            [--source-root DIR] PATH...\n"

let () =
  let waivers_file = ref None in
  let json_out = ref None in
  let metrics_out = ref None in
  let source_root = ref "." in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--waivers" :: f :: rest ->
      waivers_file := Some f;
      parse rest
    | "--json" :: f :: rest ->
      json_out := Some f;
      parse rest
    | "--metrics-json" :: f :: rest ->
      metrics_out := Some f;
      parse rest
    | "--source-root" :: d :: rest ->
      source_root := d;
      parse rest
    | arg :: rest when String.length arg > 0 && arg.[0] <> '-' ->
      paths := arg :: !paths;
      parse rest
    | arg :: _ ->
      Printf.eprintf "lint: unknown argument %s\n%s" arg usage;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let paths = List.rev !paths in
  if paths = [] then begin
    prerr_endline "lint: no paths given";
    exit 2
  end;
  (* gather files by suffix, sorted for a deterministic report *)
  let rec gather suffix acc path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc entry -> gather suffix acc (Filename.concat path entry))
        acc
        (let es = Sys.readdir path in
         Array.sort compare es;
         es)
    else if Filename.check_suffix path suffix then path :: acc
    else acc
  in
  let files suffix = List.rev (List.fold_left (gather suffix) [] paths) in
  let config = { Typedlint.default_config with source_root = !source_root } in
  let r =
    Typedlint.scan_cmt_files ~config
      ?waivers:
        (Option.map
           (fun f -> In_channel.with_open_bin f In_channel.input_all)
           !waivers_file)
      ~sources:(files ".ml") (files ".cmt")
  in
  if r.Typedlint.files_scanned = 0 then begin
    Printf.eprintf
      "lint: no .cmt implementation units under %s — build with -bin-annot \
       first (dune emits them; run from the build root)\n"
      (String.concat " " paths);
    exit 2
  end;
  (match !metrics_out with
   | Some f ->
     Obs.Metrics.enable ();
     Typedlint.publish_stats r;
     Obs.Json.write_file f (Obs.Export.metrics_json ~prefix:"typedlint" ())
   | None -> ());
  let findings = r.Typedlint.findings in
  (match !json_out with
   | Some f -> Obs.Json.write_file f (Lint_common.to_json findings)
   | None -> ());
  if findings <> [] then begin
    print_endline (Lint_common.render findings);
    Printf.printf "lint: %d finding(s) in %d file(s) scanned\n"
      (List.length findings) r.Typedlint.files_scanned;
    exit 1
  end
  else
    Printf.printf "lint: clean — %d file(s), %d rule(s), %d waived site(s)\n"
      r.Typedlint.files_scanned
      (List.length Typedlint.rule_ids)
      r.Typedlint.waivers_honored
