package repro.matching

/** Token Jaccard on strings, plain and vocabulary-discounted: the
  * references the encoded [[Similarity.knownJaccard]] of the similarity
  * tables is checked against.
  */
object ReferenceSimilarity {

  /** Jaccard similarity of whitespace token sets; null-safe (null → 0). */
  def tokenJaccard(a: String, b: String): Double = {
    val ta = Similarity.tokens(a); val tb = Similarity.tokens(b)
    if (ta.isEmpty || tb.isEmpty) 0.0
    else {
      val inter = ta.intersect(tb).size
      inter.toDouble / (ta.size + tb.size - inter)
    }
  }

  /** Vocabulary-discounted token Jaccard, (|A∩B| + |A∩B∩V|) / (2·|A∪B|):
    * shared tokens in `vocab` count fully, the others half.
    */
  def tokenJaccardKnown(a: String, b: String, vocab: Set[String]): Double = {
    val ta = Similarity.tokens(a); val tb = Similarity.tokens(b)
    if (ta.isEmpty || tb.isEmpty) 0.0
    else {
      val inter = ta.intersect(tb)
      val knownInter = inter.count(vocab.contains)
      val union = ta.size + tb.size - inter.size
      (inter.size + knownInter) / (2.0 * union)
    }
  }
}
