package repro.matching

/** Similarity measures used by the matching solutions: whitespace
  * tokenization, and the vocabulary-discounted token Jaccard of two sets of
  * token IDs under a vocabulary mask ([[known]]), which the similarity
  * tables compute.
  */
object Similarity {

  /** Whitespace tokenization, lower-cased, empty tokens dropped. */
  def tokens(s: String): Set[String] = {
    val b = Set.newBuilder[String]
    foreachToken(s)(b += _)
    b.result()
  }

  /** Calls `f` on each token of `s`, in order and repeats included: the
    * words of `s.toLowerCase` ([[foreachWord]]). Nothing for null.
    */
  private[repro] def foreachToken(s: String)(f: String => Unit): Unit =
    if (s != null) {
      val l = s.toLowerCase
      foreachWord(l)((from, until) => f(l.substring(from, until)))
    }

  /** The number of words of `s`, 0 for null: what splitting `s` on the regex
    * `\s+` leaves once empty strings are dropped. Lower-casing maps no
    * character to or from a word break, so this is also the number of
    * [[foreachToken]] calls, repeats included.
    */
  private[repro] def wordCount(s: String): Int =
    if (s == null) 0 else { var n = 0; foreachWord(s)((_, _) => n += 1); n }

  /** Calls `f(from, until)` on each word of `s`, in order: each maximal run
    * free of the characters a Java regex's `\s` matches (space, tab, line
    * feed, vertical tab, form feed and carriage return).
    */
  private def foreachWord(s: String)(f: (Int, Int) => Unit): Unit = {
    var i = 0
    while (i < s.length) {
      while (i < s.length && isSpace(s.charAt(i))) i += 1
      val start = i
      while (i < s.length && !isSpace(s.charAt(i))) i += 1
      if (i > start) f(start, i)
    }
  }

  private def isSpace(c: Char): Boolean =
    c == ' ' || c == '\t' || c == '\n' || c == '\u000B' || c == '\f' || c == '\r'

  /** A vocabulary as a mask over a dataset's token IDs, which number its
    * distinct tokens by rank: `known(r)` is 1 when `tokens(r)`, the token of
    * rank r, is in `vocab`, else 0. Without a vocabulary every token is
    * known.
    */
  private[matching] def known(tokens: Array[String], vocab: Option[Set[String]]): Array[Int] =
    tokens.map(t => if (vocab.forall(_.contains(t))) 1 else 0)

  /** Vocabulary-discounted token Jaccard of two sorted sets of token IDs
    * under the vocabulary mask `known` ([[known]]): models a solution whose
    * learned token weights cover only its training vocabulary. Shared tokens the solution knows count fully, shared tokens
    * it does not know count half (it sees the string equality but has no
    * learned weight for it):
    *
    *   (|A∩B| + |A∩B∩V|) / (2·|A∪B|)
    *
    * Equal to the plain token Jaccard when every shared token is known, and
    * degrading gracefully with the out-of-vocabulary fraction — the
    * mechanism behind train/test gaps on low-vocabulary-similarity splits
    * (Frost, Appendix C.2). One sorted merge with no data-dependent
    * branch: each step compares the heads as longs, whose sign bits give
    * `lt` and `gt`, advances the side or sides not greater, and counts an
    * equal pair once, and once more when `known` is 1 at its ID. The two
    * counts do not depend on how the IDs number the tokens. 0.0 when
    * either set is empty.
    */
  private[matching] def knownJaccard(x: Array[Int], y: Array[Int], known: Array[Int]): Double =
    if (x.length == 0 || y.length == 0) 0.0
    else {
      var i = 0; var j = 0; var inter = 0; var knownInter = 0
      while (i < x.length && j < y.length) {
        val u = x(i); val v = y(j)
        val lt = ((u.toLong - v.toLong) >>> 63).toInt
        val gt = ((v.toLong - u.toLong) >>> 63).toInt
        val eq = 1 - lt - gt
        inter += eq
        knownInter += eq & known(u)
        i += 1 - gt
        j += 1 - lt
      }
      (inter + knownInter) / (2.0 * (x.length + y.length - inter))
    }
}
