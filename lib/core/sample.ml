type cert = { member : bool; vrf : Vrf.output }

let cert_words = 2
let domain = "committee-sample\x00"

(* Membership uses the top 52 bits of beta: P[member] = lambda/n exactly up
   to 2^-52 rounding. *)
let sample_bits = 52

let threshold ~n ~lambda =
  if n <= 0 || lambda < 0 || lambda > n then invalid_arg "Sample.threshold";
  (* floor(lambda * 2^52 / n); lambda <= n <= 2^20ish keeps this in range. *)
  Int64.div (Int64.mul (Int64.of_int lambda) (Int64.shift_left 1L sample_bits)) (Int64.of_int n)

let alpha s = domain ^ s

let member_of_beta ~n ~lambda beta =
  Vrf.beta_bits beta sample_bits < threshold ~n ~lambda

let sample kr ~pid ~s ~lambda =
  let n = Vrf.Keyring.n kr in
  let vrf = Vrf.Keyring.prove kr pid (alpha s) in
  { member = member_of_beta ~n ~lambda vrf.Vrf.beta; vrf }

let committee_val kr ~s ~lambda ~pid cert =
  (* A pid outside [0, n) names no process, so no certificate proves it a
     member; Byzantine messages carry such pids in OK support entries and
     SECOND value origins. *)
  pid >= 0
  && pid < Vrf.Keyring.n kr
  && cert.member
  && Vrf.Keyring.verify kr ~signer:pid (alpha s) cert.vrf
  && member_of_beta ~n:(Vrf.Keyring.n kr) ~lambda cert.vrf.Vrf.beta

let same_cert c k =
  c == k
  || (Bool.equal c.member k.member
     && String.equal c.vrf.Vrf.beta k.vrf.Vrf.beta
     && String.equal c.vrf.Vrf.proof k.vrf.Vrf.proof)

module Directory = struct
  type comm = { bits : Sim.Bitset.t; prefix : int array; size : int }

  type t = {
    kr : Vrf.Keyring.t;
    lambda : int;
    comms : (string, comm) Hashtbl.t;
    unresolved : comm;  (* size -1: what a Phase holds before first use *)
  }

  let create kr ~lambda =
    {
      kr;
      lambda;
      comms = Hashtbl.create 32;
      unresolved = { bits = Sim.Bitset.create 0; prefix = [||]; size = -1 };
    }

  let lambda t = t.lambda

  let committee t ~s =
    match Hashtbl.find_opt t.comms s with
    | Some c -> c
    | None ->
        let n = Vrf.Keyring.n t.kr in
        let bits = Sim.Bitset.create n in
        for pid = 0 to n - 1 do
          if (sample t.kr ~pid ~s ~lambda:t.lambda).member then Sim.Bitset.add bits pid
        done;
        let comm = { bits; prefix = Sim.Bitset.prefix_counts bits; size = Sim.Bitset.card bits } in
        Hashtbl.replace t.comms s comm;
        comm

  let size c = c.size

  let rank c pid =
    if pid < 0 || pid >= Sim.Bitset.length c.bits then -1
    else Sim.Bitset.rank_with c.bits c.prefix pid
end

let committee kr ~s ~lambda =
  Sim.Bitset.to_list (Directory.committee (Directory.create kr ~lambda) ~s).Directory.bits

type 'k slot = Unset | Verdict of { key : 'k; ok : bool }

type 'k phase = {
  dir : Directory.t;
  s : string;
  mutable comm : Directory.comm;
  mutable slots : 'k slot array;
  peer : 'k phase option;
      (* the memo's handle for [s] when it belongs to another directory:
         this handle shares its slots, if the committees have one size *)
}

module Memo = struct
  type nonrec 'k slot = 'k slot = Unset | Verdict of { key : 'k; ok : bool }
  type 'k t = (string, 'k phase) Hashtbl.t

  let create () : 'k t = Hashtbl.create 64
end

module Phase = struct
  type 'k t = 'k phase

  let create dir memo ~s =
    match Hashtbl.find_opt memo s with
    | Some p when p.dir == dir -> p
    | peer ->
        let p = { dir; s; comm = dir.Directory.unresolved; slots = [||]; peer } in
        if Option.is_none peer then Hashtbl.replace memo s p;
        p

  let s p = p.s

  let rec resolve p =
    if p.comm.Directory.size < 0 then begin
      let comm = Directory.committee p.dir ~s:p.s in
      let size = Directory.size comm in
      (p.slots <-
         match p.peer with
         | None -> Array.make size Unset
         | Some q ->
             resolve q;
             if Array.length q.slots <> size then
               invalid_arg "Sample.Phase: memo shared across different committees";
             q.slots);
      p.comm <- comm
    end

  let rank p pid =
    resolve p;
    Directory.rank p.comm pid

  let size p =
    resolve p;
    p.comm.Directory.size

  let slots p =
    resolve p;
    p.slots
end

(* 32 ranks per word, so a rank's word and bit are a shift and a mask.
   The words sit in the set itself: a [mem] reads the record and one
   word. *)
module Seen = struct
  type t = { mutable words : int array }

  let create () = { words = [||] }

  let mem s r =
    let i = r lsr 5 in
    i < Array.length s.words && s.words.(i) land (1 lsl (r land 31)) <> 0

  let add p s r =
    if Array.length s.words = 0 then s.words <- Array.make ((Phase.size p + 31) lsr 5) 0;
    let i = r lsr 5 in
    s.words.(i) <- s.words.(i) lor (1 lsl (r land 31))

  let copy s = { words = Array.copy s.words }

  let to_list s =
    let acc = ref [] in
    for r = (32 * Array.length s.words) - 1 downto 0 do
      if mem s r then acc := r :: !acc
    done;
    !acc
end
