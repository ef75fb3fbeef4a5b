package org.apache.spark

/** Runs driver code under a lower `spark.driver.maxResultSize`. Each job
  * reads the setting when it starts; this lives in this package because
  * the context's live configuration is package-private.
  */
object ResultSizeLimit {

  /** What `body` returned, run while the driver aborts a job whose task
    * results pass `bytes` in all.
    */
  def apply[T](sc: SparkContext, bytes: Long)(body: => T): T = {
    val key = "spark.driver.maxResultSize"
    val before = sc.conf.getOption(key)
    sc.conf.set(key, bytes.toString)
    try body
    finally before.fold(sc.conf.remove(key))(sc.conf.set(key, _))
  }
}
