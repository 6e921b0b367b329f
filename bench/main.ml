(* B1: primitive microbenchmarks (bechamel, ns/op).

   Usage:
     dune exec bench/main.exe                 -- print the B1 rows
     dune exec bench/main.exe -- --json F     -- also write them to F
                                                 (coincidence.bench/1)

   The paper's tables are `coincidence experiment t1|e2|...|e9`;
   wall-clock claims use bench/e2e (`e2e.exe --compare`, alternating
   pairs). *)

let json_path =
  let fail fmt =
    Format.kasprintf
      (fun msg ->
        prerr_endline msg;
        exit 2)
      fmt
  in
  match List.tl (Array.to_list Sys.argv) with
  | [] -> None
  | [ "--json" ] -> fail "--json needs a path"
  | [ "--json"; path ] -> Some path
  | "--json" :: _ :: arg :: _ | arg :: _ -> fail "unknown argument %S" arg

let write_json path rows =
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str Obs.Export.bench_schema);
        ( "provenance",
          Obs.Json.Obj
            [
              ("timer", Obs.Json.Str "bechamel monotonic_clock");
              ("recommended_domain_count", Obs.Json.Int (Exec.default_jobs ()));
            ] );
        ( "rows",
          Obs.Json.List
            (List.map
               (fun (name, ns) ->
                 Obs.Json.Obj
                   [
                     ("table", Obs.Json.Str "b1");
                     ("name", Obs.Json.Str name);
                     ("ns_per_op", Obs.Json.Float ns);
                   ])
               rows) );
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Obs.Json.to_channel oc doc;
      output_char oc '\n');
  Format.printf "wrote %d rows to %s@." (List.length rows) path

(* Keyrings are warmed before measuring: key setup is part of the PKI
   assumption, not of the primitives' cost. *)
let keyring n =
  let kr = Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:(Printf.sprintf "bench-%d" n) () in
  Vrf.Keyring.warm kr;
  kr

let micro () =
  let open Bechamel in
  let input_64 = String.make 64 'x' in
  let input_4k = String.make 4096 'x' in
  let drbg = Crypto.Drbg.create "bench" in
  let random n = Crypto.Drbg.generate drbg n in
  let rsa_sk = Rsa.keygen ~bits:512 ~random in
  let rsa_pk = Rsa.public_of_secret rsa_sk in
  let rsa_verifier = Rsa.verifier rsa_pk in
  let rsa_sig = Rsa.sign rsa_sk "bench-message" in
  let mont = Bignum.Bigint.Mont.create rsa_pk.Rsa.n in
  let base = Bignum.Bigint.of_hex "123456789abcdef0" in
  let exp = Bignum.Bigint.of_hex "fedcba9876543210fedcba9876543210" in
  (* a full-width exponent for the window-vs-binary ladder comparison *)
  let exp_512 = Bignum.Bigint.pred rsa_pk.Rsa.n in
  let elem_a = Bignum.Bigint.Mont.to_mont mont (Rsa.fdh rsa_pk "kernel-a") in
  let elem_b = Bignum.Bigint.Mont.to_mont mont (Rsa.fdh rsa_pk "kernel-b") in
  let keygen_drbg = Crypto.Drbg.create "bench-keygen" in
  let shares = Field.Shamir.deal ~secret:(Field.Gf.of_int 4242) ~threshold:11 ~n:33 random in
  let share_subset = Array.to_list (Array.sub shares 0 11) in
  let kr = keyring 64 and kr24 = keyring 24 in
  let vrf_out = Vrf.Keyring.prove kr 0 "bench-alpha" in
  (* Verification memo effect on the real backend: same certificate each
     iteration, one keyring with the default cache bound and one with the
     cache disabled. *)
  let fdh_cached = Vrf.Keyring.create ~backend:(Vrf.Rsa_fdh { bits = 256 }) ~n:4 ~seed:"bench-vc" () in
  let fdh_uncached =
    Vrf.Keyring.create ~backend:(Vrf.Rsa_fdh { bits = 256 }) ~cache_bound:0 ~n:4 ~seed:"bench-vc" ()
  in
  let fdh_out = Vrf.Keyring.prove fdh_cached 0 "bench-alpha" in
  let dleq_grp = Vrf.Group.generate ~qbits:160 ~seed:"bench-grp" () in
  let dleq_sk = Vrf.Dleq_vrf.keygen dleq_grp ~random in
  let dleq_pk = Vrf.Dleq_vrf.public_of_secret dleq_sk in
  let dleq_out = Vrf.Dleq_vrf.prove dleq_grp dleq_sk "bench" in
  let counter = ref 0 in
  let tests =
    [
      Test.make ~name:"sha256-64B" (Staged.stage (fun () -> Crypto.Sha256.digest input_64));
      Test.make ~name:"sha256-4KiB" (Staged.stage (fun () -> Crypto.Sha256.digest input_4k));
      Test.make ~name:"hmac-sha256-64B"
        (Staged.stage (fun () -> Crypto.Hmac.sha256 ~key:"key" input_64));
      Test.make ~name:"modpow-512b" (Staged.stage (fun () -> Bignum.Bigint.Mont.pow mont base exp));
      (* window-vs-binary ladder on a full-width exponent, and the raw
         multiply kernel the ladders are built from (it squares too) *)
      Test.make ~name:"modpow-512b-window"
        (Staged.stage (fun () -> Bignum.Bigint.Mont.pow mont base exp_512));
      Test.make ~name:"modpow-512b-binary"
        (Staged.stage (fun () -> Bignum.Bigint.Mont.pow_binary mont base exp_512));
      Test.make ~name:"mont-mul-512b"
        (Staged.stage (fun () -> Bignum.Bigint.Mont.mul mont elem_a elem_b));
      Test.make ~name:"rsa512-sign" (Staged.stage (fun () -> Rsa.sign rsa_sk "bench-message"));
      Test.make ~name:"rsa512-sign-plain"
        (Staged.stage (fun () -> Rsa.sign_plain rsa_sk "bench-message"));
      Test.make ~name:"rsa512-verify"
        (Staged.stage (fun () -> Rsa.verify' rsa_verifier "bench-message" rsa_sig));
      Test.make ~name:"rsa512-keygen"
        (Staged.stage (fun () -> Rsa.keygen ~bits:512 ~random:(Crypto.Drbg.generate keygen_drbg)));
      Test.make ~name:"vrf-prove-mock"
        (Staged.stage (fun () ->
             incr counter;
             Vrf.Keyring.prove kr (!counter mod 64) (string_of_int !counter)));
      Test.make ~name:"vrf-verify-mock"
        (Staged.stage (fun () -> Vrf.Keyring.verify kr ~signer:0 "bench-alpha" vrf_out));
      Test.make ~name:"keyring-verify-cached"
        (Staged.stage (fun () -> Vrf.Keyring.verify fdh_cached ~signer:0 "bench-alpha" fdh_out));
      Test.make ~name:"keyring-verify-uncached"
        (Staged.stage (fun () -> Vrf.Keyring.verify fdh_uncached ~signer:0 "bench-alpha" fdh_out));
      Test.make ~name:"dleq160-prove"
        (Staged.stage (fun () ->
             incr counter;
             Vrf.Dleq_vrf.prove dleq_grp dleq_sk (string_of_int !counter)));
      Test.make ~name:"dleq160-verify"
        (Staged.stage (fun () -> Vrf.Dleq_vrf.verify dleq_grp dleq_pk "bench" dleq_out));
      Test.make ~name:"shamir-deal-33"
        (Staged.stage (fun () ->
             Field.Shamir.deal ~secret:(Field.Gf.of_int 7) ~threshold:11 ~n:33 random));
      Test.make ~name:"shamir-reconstruct-11"
        (Staged.stage (fun () -> Field.Shamir.reconstruct share_subset));
      Test.make ~name:"committee-sample"
        (Staged.stage (fun () ->
             incr counter;
             Core.Sample.sample kr ~pid:(!counter mod 64) ~s:(string_of_int !counter) ~lambda:33));
      Test.make ~name:"shared-coin-n24"
        (Staged.stage (fun () ->
             incr counter;
             Core.Runner.run_shared_coin ~keyring:kr24 ~n:24 ~f:3 ~round:!counter
               ~seed:!counter ()));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"micro" tests)
  in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Bechamel.Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.filter_map
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ est ] ->
          Format.printf "%-34s %14.0f ns/op@." name est;
          Some (name, est)
      | Some _ | None ->
          Format.printf "%-34s %14s@." name "n/a";
          None)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

let () =
  Format.printf "=== B1: primitive microbenchmarks (bechamel, ns/op) ===@.";
  let rows = micro () in
  Option.iter (fun path -> write_json path rows) json_path

