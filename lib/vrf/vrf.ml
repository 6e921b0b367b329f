module Group = Group
module Dleq_vrf = Dleq_vrf

type output = { beta : string; proof : string }

let compare_beta = String.compare

let beta_bits beta k =
  if k < 1 || k > 63 then invalid_arg "Vrf.beta_bits: k out of range";
  let acc = ref 0L in
  for i = 0 to 7 do
    acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (Char.code beta.[i]))
  done;
  Int64.shift_right_logical !acc (64 - k)

let beta_lsb beta = Char.code beta.[String.length beta - 1] land 1

type backend = Rsa_fdh of { bits : int } | Dleq of { qbits : int } | Mock

(* Domain-separation prefixes: VRF inputs and ordinary signatures must not
   collide, or a signature oracle would double as a VRF oracle. *)
let vrf_prefix = "COIN-VRF\x00"
let sig_prefix = "COIN-SIG\x00"
let beta_prefix = "COIN-BETA\x00"

module Keyring = struct
  type key =
    | Rsa_key of { secret : Rsa.secret; verifier : Rsa.verifier }
    | Dleq_key of { secret : Dleq_vrf.secret; public : Dleq_vrf.public }
    | Mock_key of { raw : string; mac : Crypto.Hmac.key }
        (* per-process oracle key: its bytes (for the fingerprint) and its
           prepared HMAC states *)

  type t = {
    n : int;
    backend : backend;
    seed : string;
    keys : key option array;  (* lazily generated *)
    mutable group : Group.t option;  (* shared Schnorr group (Dleq backend) *)
    mutable mock_master : Crypto.Hmac.key option;
        (* the Mock backend's master key, prepared once per keyring *)
    prove_cache : (string, output) Hashtbl.t;
        (* prove is deterministic, so caching is semantically invisible. *)
    verify_cache : (string, bool) Hashtbl.t;
        (* The same certificate/signature is verified by every receiver of a
           broadcast; memoizing the boolean outcome keeps simulations
           tractable without changing any observable behaviour (negative
           results are cached too, so forgeries still fail everywhere). *)
    verify_order : string Queue.t;
        (* insertion order of the live verify_cache keys: the FIFO
           eviction queue.  Invariant: queue contents = table keys. *)
    cache_bound : int;  (* 0 disables the verify memo *)
    mutable cache_hits : int;
    mutable cache_misses : int;
  }

  let default_cache_bound = 65536

  let create ?(backend = Rsa_fdh { bits = 256 }) ?(cache_bound = default_cache_bound) ~n ~seed
      () =
    if n <= 0 then invalid_arg "Keyring.create: n must be positive";
    if cache_bound < 0 then invalid_arg "Keyring.create: cache_bound must be >= 0";
    {
      n;
      backend;
      seed;
      keys = Array.make n None;
      group = None;
      mock_master = None;
      prove_cache = Hashtbl.create 4096;
      verify_cache = Hashtbl.create (min 4096 (max 16 cache_bound));
      verify_order = Queue.create ();
      cache_bound;
      cache_hits = 0;
      cache_misses = 0;
    }

  let clone t = create ~backend:t.backend ~cache_bound:t.cache_bound ~n:t.n ~seed:t.seed ()

  (* Verification is a pure function of the cache key (which embeds the
     full proof bytes), so the memo is semantics-preserving even for
     Byzantine-forged proofs: a forgery misses, fails the real check, and
     that negative verdict is what later receivers replay. *)
  let cached t key compute =
    match Hashtbl.find_opt t.verify_cache key with
    | Some v ->
        t.cache_hits <- t.cache_hits + 1;
        v
    | None ->
        let v = compute () in
        t.cache_misses <- t.cache_misses + 1;
        if t.cache_bound > 0 then begin
          if Hashtbl.length t.verify_cache >= t.cache_bound then begin
            (* FIFO: drop the oldest insertion.  The queue is non-empty
               exactly when the table is, so take cannot raise here. *)
            let oldest = Queue.take t.verify_order in
            Hashtbl.remove t.verify_cache oldest
          end;
          Hashtbl.replace t.verify_cache key v;
          Queue.add key t.verify_order
        end;
        v

  let n t = t.n
  let backend t = t.backend

  type cache_stats = { size : int; bound : int; hits : int; misses : int }

  let verify_cache_stats t =
    {
      size = Hashtbl.length t.verify_cache;
      bound = t.cache_bound;
      hits = t.cache_hits;
      misses = t.cache_misses;
    }

  let evaluations t = Hashtbl.length t.prove_cache

  let group t qbits =
    match t.group with
    | Some g -> g
    | None ->
        (* The group is part of the trusted setup, shared by everyone. *)
        let g = Group.generate ~qbits ~seed:("group:" ^ t.seed) () in
        t.group <- Some g;
        g

  let generate t i =
    match t.backend with
    | Dleq { qbits } ->
        let grp = group t qbits in
        let drbg =
          Crypto.Drbg.create ~personalization:(Printf.sprintf "dleq-key-%d" i) t.seed
        in
        let secret = Dleq_vrf.keygen grp ~random:(Crypto.Drbg.generate drbg) in
        Dleq_key { secret; public = Dleq_vrf.public_of_secret secret }
    | Mock ->
        let master =
          match t.mock_master with
          | Some m -> m
          | None ->
              let m = Crypto.Hmac.key (Crypto.Sha256.digest_list [ "mock-master"; t.seed ]) in
              t.mock_master <- Some m;
              m
        in
        let raw = Crypto.Hmac.mac master (string_of_int i) in
        Mock_key { raw; mac = Crypto.Hmac.key raw }
    | Rsa_fdh { bits } ->
        let drbg =
          Crypto.Drbg.create ~personalization:(Printf.sprintf "key-%d" i) t.seed
        in
        let secret = Rsa.keygen ~bits ~random:(Crypto.Drbg.generate drbg) in
        let verifier = Rsa.verifier (Rsa.public_of_secret secret) in
        Rsa_key { secret; verifier }

  let key t i =
    if i < 0 || i >= t.n then invalid_arg "Keyring: pid out of range";
    match t.keys.(i) with
    | Some k -> k
    | None ->
        let k = generate t i in
        t.keys.(i) <- Some k;
        k

  let warm t =
    (match t.backend with Dleq { qbits } -> ignore (group t qbits) | Rsa_fdh _ | Mock -> ());
    for i = 0 to t.n - 1 do
      ignore (key t i)
    done

  let prove_uncached t i alpha =
    match key t i with
    | Mock_key { mac; _ } ->
        let proof = Crypto.Hmac.mac_list mac [ vrf_prefix; alpha ] in
        let beta = Crypto.Sha256.digest (beta_prefix ^ proof) in
        { beta; proof }
    | Rsa_key { secret; _ } ->
        let proof = Rsa.sign secret (vrf_prefix ^ alpha) in
        let beta = Crypto.Sha256.digest (beta_prefix ^ proof) in
        { beta; proof }
    | Dleq_key { secret; _ } ->
        let grp = (match t.group with Some g -> g | None -> assert false) in
        let beta, pi = Dleq_vrf.prove grp secret (vrf_prefix ^ alpha) in
        { beta; proof = Dleq_vrf.proof_to_bytes grp pi }

  let cache_key tag signer alpha rest =
    (* Plain concatenation: hashing the key with SHA-256 would cost more
       than the lookup saves.  Collisions are resolved by string equality
       in the Hashtbl, so correctness never depends on this shape. *)
    String.concat "\x00" [ tag; string_of_int signer; alpha; rest ]

  let prove t i alpha =
    let cache_key = cache_key "P" i alpha "" in
    match Hashtbl.find_opt t.prove_cache cache_key with
    | Some out -> out
    | None ->
        let out = prove_uncached t i alpha in
        Hashtbl.replace t.prove_cache cache_key out;
        out

  let verify t ~signer alpha out =
    let cache_key = cache_key "V" signer alpha (out.beta ^ out.proof) in
    cached t cache_key (fun () ->
        String.length out.beta = 32
        &&
        (* The beta-from-proof relation is backend-specific: hash of the
           whole proof for RSA/Mock, hash of gamma for DLEQ (checked inside
           Dleq_vrf.verify). *)
        match key t signer with
        | Mock_key { mac; _ } ->
            Crypto.Sha256.digest (beta_prefix ^ out.proof) = out.beta
            && Crypto.Hmac.equal out.proof (Crypto.Hmac.mac_list mac [ vrf_prefix; alpha ])
        | Rsa_key { verifier; _ } ->
            Crypto.Sha256.digest (beta_prefix ^ out.proof) = out.beta
            && Rsa.verify' verifier (vrf_prefix ^ alpha) out.proof
        | Dleq_key { public; _ } -> begin
            let grp = (match t.group with Some g -> g | None -> assert false) in
            match Dleq_vrf.proof_of_bytes grp out.proof with
            | Some pi -> Dleq_vrf.verify grp public (vrf_prefix ^ alpha) (out.beta, pi)
            | None -> false
          end)

  let sign t i msg =
    match key t i with
    | Mock_key { mac; _ } -> Crypto.Hmac.mac_list mac [ sig_prefix; msg ]
    | Rsa_key { secret; _ } -> Rsa.sign secret (sig_prefix ^ msg)
    | Dleq_key { secret; _ } ->
        let grp = (match t.group with Some g -> g | None -> assert false) in
        Dleq_vrf.sign grp secret (sig_prefix ^ msg)

  let verify_sig t ~signer msg sig_ =
    let cache_key = cache_key "S" signer msg sig_ in
    cached t cache_key (fun () ->
        match key t signer with
        | Mock_key { mac; _ } ->
            Crypto.Hmac.equal sig_ (Crypto.Hmac.mac_list mac [ sig_prefix; msg ])
        | Rsa_key { verifier; _ } -> Rsa.verify' verifier (sig_prefix ^ msg) sig_
        | Dleq_key { public; _ } ->
            let grp = (match t.group with Some g -> g | None -> assert false) in
            Dleq_vrf.verify_sig grp public (sig_prefix ^ msg) sig_)

  let public_fingerprint t i =
    match key t i with
    | Mock_key { raw; _ } -> Crypto.Sha256.digest ("mock-fp" ^ raw)
    | Rsa_key { secret; _ } -> Rsa.fingerprint (Rsa.public_of_secret secret)
    | Dleq_key { public; _ } ->
        let grp = (match t.group with Some g -> g | None -> assert false) in
        Crypto.Sha256.digest ("dleq-fp" ^ Group.element_bytes grp (Dleq_vrf.public_element public))
end
